package main

import (
	"context"
	"reflect"
	"testing"

	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/malardalen"
)

// TestLedgerMatchesRunCell checks that the traced run's composition of
// public calls computes what experiment.RunCell computes, field for field,
// for sweep cells with and without the L2 and for a service-default cell.
func TestLedgerMatchesRunCell(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		c cell
		o experiment.Options
	}{
		{cell{Program: "fdct", Config: 2}, sweepOptions(cell{})},
		{cell{Program: "crc", Config: 8, L2: true}, sweepOptions(cell{L2: true})},
		{cell{Program: "fdct", Config: 14, L2: true}, sweepOptions(cell{L2: true})},
		{cell{Program: "crc", Config: 0}, serveOptions},
	} {
		b, ok := malardalen.ByName(tc.c.Program)
		if !ok {
			t.Fatalf("no program %s", tc.c.Program)
		}
		want, err := experiment.RunCell(ctx, b, tc.c.Config, energy.Tech45, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		l := newLedger()
		got, _, err := l.cell(ctx, b, tc.c, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ledger cell\n%+v\nRunCell\n%+v", tc.c, got, want)
		}
		if tc.c.L2 && l.ns["absint.l2"] == 0 {
			t.Errorf("%s: no L2 analysis booked", tc.c)
		}
		if l.counts["core.validations"] != float64(want.Validations) {
			t.Errorf("%s: ledger counts %v validations, cell has %d", tc.c, l.counts["core.validations"], want.Validations)
		}
	}
}

// TestDeterministic runs a small sweep and a small serve-mix sequence twice
// and checks that the gain metrics and the ledger's counts repeat exactly.
func TestDeterministic(t *testing.T) {
	ctx := context.Background()
	sweep := []cell{{Program: "fdct", Config: 2}, {Program: "crc", Config: 8, L2: true}}
	reqs := []request{{Cell: cell{Program: "crc", Config: 0}}, {Cell: cell{Program: "crc", Config: 0}, Repeat: true}}
	type outcome struct {
		gains  map[string]float64
		counts map[string]float64
	}
	once := func() outcome {
		b, err := newBench("fig3-sweep", 1)
		if err != nil {
			t.Fatal(err)
		}
		b.cells = sweep
		m := map[string]metric{}
		if err := b.measure(ctx, 0, m); err != nil {
			t.Fatal(err)
		}
		l := newLedger()
		if _, err := b.pass(ctx, l); err != nil {
			t.Fatal(err)
		}
		if _, err := b.servePass(ctx, reqs, serveTick, l); err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Fatalf("%d failed ops", b.failed)
		}
		o := outcome{gains: map[string]float64{}, counts: l.counts}
		for _, name := range []string{"wcet_gain_pct", "energy_gain_pct", "acet_gain_pct"} {
			o.gains[name] = m[name].Value
		}
		return o
	}
	first, second := once(), once()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("runs differ:\n%+v\n%+v", first, second)
	}
	for _, name := range []string{"core.validations", "wcet.incremental_analyses", "sim.fetches", "service.cache_hits"} {
		if first.counts[name] == 0 {
			t.Errorf("%s is zero; the check is vacuous", name)
		}
	}
}
