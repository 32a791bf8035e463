package core

import (
	"context"
	"fmt"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
	"ucp/internal/wcet/wcettest"
)

// TestDifferentialRefreshMatchesFull runs the real optimizer — batched
// commits, bisection on rejection, rollback, pruning — and cross-checks
// every incremental refresh against from-scratch analyses of the same
// program state. This exercises the incremental path under exactly the
// mutation patterns production sees (batch insert, partial rollback via
// the program's undo record, prefetch removal during pruning, each accepted
// result retiring the one it replaced). One cell runs behind
// an L2, so both candidate phases and the incremental L2 analysis are
// checked as well.
//
// The optimizer's chains drop the may component where no verdict reads
// AlwaysMiss (see optimizeHier), so each refresh is compared twice: bit for bit
// with a from-scratch analysis of the same demand (wcettest.SameAsFull:
// verdicts, effectiveness, exit states, costs, totals and addresses), and
// with the analysis that resolves every verdict, up to AlwaysMiss reading
// NotClassified (diffUpToAM).
func TestDifferentialRefreshMatchesFull(t *testing.T) {
	configs := cache.Table2()
	checks := 0
	testRefreshCheck = func(inc *wcet.Result) {
		checks++
		// The last level resolves AlwaysMiss exactly when the chain's
		// caller reads it, which is the demand the full analysis derives.
		if err := wcettest.SameAsFull(inc); err != nil {
			t.Fatalf("refresh diverges: %v", err)
		}
		all, err := wcet.AnalyzeXHier(context.Background(), inc.X, inc.Hier, inc.Par)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffUpToAM(inc, all); err != nil {
			t.Fatalf("refresh against the analysis with every verdict: %v", err)
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

// diffUpToAM reports the first way lean differs from full, two analyses of
// the same program state where full resolves every verdict and lean's
// levels may lack AlwaysMiss (see absint.Result.HasAlwaysMiss): τ_w, the
// miss, L2-miss and fetch totals, every block's n_w, cost and extra, every
// prefetch's effectiveness and every verdict must agree, except that a
// level without AlwaysMiss verdicts reads NotClassified where full reads
// AlwaysMiss.
func diffUpToAM(lean, full *wcet.Result) error {
	if lean.TauW != full.TauW || lean.Misses != full.Misses || lean.L2Misses != full.L2Misses || lean.Fetches != full.Fetches {
		return fmt.Errorf("τ_w/misses/L2 misses/fetches %d/%d/%d/%d, with every verdict %d/%d/%d/%d",
			lean.TauW, lean.Misses, lean.L2Misses, lean.Fetches, full.TauW, full.Misses, full.L2Misses, full.Fetches)
	}
	if (lean.AI2 == nil) != (full.AI2 == nil) {
		return fmt.Errorf("L2 analysis present in only one result")
	}
	for id := range full.Nw {
		if lean.Nw[id] != full.Nw[id] || lean.Cost[id] != full.Cost[id] || lean.Extra[id] != full.Extra[id] {
			return fmt.Errorf("block %d n_w/cost/extra %d/%d/%d, with every verdict %d/%d/%d", id,
				lean.Nw[id], lean.Cost[id], lean.Extra[id], full.Nw[id], full.Cost[id], full.Extra[id])
		}
		for lvl, lv := range [][2]*absint.Result{{lean.AI, full.AI}, {lean.AI2, full.AI2}} {
			a, b := lv[0], lv[1]
			if b == nil {
				continue
			}
			for i, want := range b.Class[id] {
				got := a.Class[id][i]
				if a.Effective(id, i) != b.Effective(id, i) {
					return fmt.Errorf("L%d block %d ref %d: effectiveness diverges", lvl+1, id, i)
				}
				if got == want || (!a.HasAlwaysMiss() && want == absint.AlwaysMiss && got == absint.NotClassified) {
					continue
				}
				return fmt.Errorf("L%d block %d ref %d: verdict %v, with every verdict %v", lvl+1, id, i, got, want)
			}
		}
	}
	return nil
}
