package core

import (
	"context"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
)

// TestDifferentialRefreshMatchesFull runs the real optimizer — batched
// commits, bisection on rejection, rollback, pruning — and cross-checks
// every incremental refresh against a from-scratch analysis of the same
// program state. This exercises the incremental path under exactly the
// mutation patterns production sees (batch insert, partial rollback via
// snapshot restore, prefetch removal during pruning). One cell runs behind
// an L2, so both candidate phases and the incremental L2 analysis are
// checked as well.
func TestDifferentialRefreshMatchesFull(t *testing.T) {
	configs := cache.Table2()
	checks := 0
	testRefreshCheck = func(inc *wcet.Result) {
		checks++
		full, err := wcet.AnalyzeXHier(context.Background(), inc.X, inc.Hier, inc.Par)
		if err != nil {
			t.Fatal(err)
		}
		if inc.TauW != full.TauW || inc.Misses != full.Misses || inc.L2Misses != full.L2Misses || inc.Fetches != full.Fetches {
			t.Fatalf("refresh diverges: τ_w %d/%d misses %d/%d L2 misses %d/%d fetches %d/%d",
				inc.TauW, full.TauW, inc.Misses, full.Misses, inc.L2Misses, full.L2Misses, inc.Fetches, full.Fetches)
		}
		if (inc.AI2 == nil) != (full.AI2 == nil) {
			t.Fatal("refresh diverges: L2 analysis present in only one result")
		}
		for id := range full.Nw {
			if inc.Nw[id] != full.Nw[id] || inc.Cost[id] != full.Cost[id] || inc.Extra[id] != full.Extra[id] {
				t.Fatalf("refresh diverges at block %d (Nw/Cost/Extra)", id)
			}
			for _, lv := range [][2]*absint.Result{{inc.AI, full.AI}, {inc.AI2, full.AI2}} {
				a, b := lv[0], lv[1]
				if b == nil {
					continue
				}
				for i := range b.Class[id] {
					if a.Class[id][i] != b.Class[id][i] || a.Effective[id][i] != b.Effective[id][i] {
						t.Fatalf("refresh classification diverges at block %d ref %d", id, i)
					}
				}
				if !a.In[id].Equal(b.In[id]) {
					t.Fatalf("refresh in-state diverges at block %d", id)
				}
			}
		}
	}
	defer func() { testRefreshCheck = nil }()

	for _, tc := range []struct {
		prog string
		cfg  int
		l2   cache.Config
	}{
		{"crc", 0, cache.Config{}},
		{"fdct", 4, cache.Config{}},
		{"statemate", 26, cache.Config{}},
		{"fdct", 0, cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192}},
	} {
		bm, ok := malardalen.ByName(tc.prog)
		if !ok {
			t.Fatalf("unknown program %s", tc.prog)
		}
		h := cache.Hierarchy{L1: configs[tc.cfg], L2: tc.l2}
		par := wcet.Params{HitCycles: 1, MissPenalty: 10, Lambda: 10}
		if h.HasL2() {
			par.L2HitCycles = 3
		}
		_, rep, err := OptimizeHier(context.Background(), bm.Prog, h, Options{Par: par, ValidationBudget: 30})
		if err != nil {
			t.Fatalf("%s: %v", tc.prog, err)
		}
		if rep.Validations == 0 {
			t.Fatalf("%s: optimizer performed no validations; test is vacuous", tc.prog)
		}
	}
	if checks == 0 {
		t.Fatal("refresh hook never fired")
	}
}
