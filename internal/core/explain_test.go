package core

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
)

// TestExplainDecisionsMatchProgram runs the optimizer with the explain log
// on programs that actually insert (and prune) prefetches and checks the
// report's accounting invariants: decisions still marked inserted are 1:1
// with the prefetch instructions present in the optimized program — even
// though candidate keys drift across passes and the cleanup pass removes
// committed parasites — every decision carries a verdict, and every decision
// of these single-level runs names the L1 (level 0), rejected ones included.
func TestExplainDecisionsMatchProgram(t *testing.T) {
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	configs := cache.Table2()

	for _, tc := range []struct {
		prog string
		cfg  int
	}{
		{"fdct", 0}, // inserts dozens, prunes parasites (k1)
		{"crc", 0},  // inserts nothing: the report must still be coherent
	} {
		bm, ok := malardalen.ByName(tc.prog)
		if !ok {
			t.Fatalf("unknown program %s", tc.prog)
		}
		q, rep, err := OptimizeHier(context.Background(), bm.Prog, cache.Hier1(configs[tc.cfg]),
			Options{Par: par, Explain: true, ValidationBudget: 150})
		if err != nil {
			t.Fatalf("%s: %v", tc.prog, err)
		}

		var inserted int
		for _, d := range rep.Decisions {
			if d.Reason == "" {
				t.Errorf("%s: decision for target %#x has no reason", tc.prog, d.Target)
			}
			if d.Level != 0 {
				t.Errorf("%s: single-level decision (%s) reports level %d, want 0 (L1)", tc.prog, d.Reason, d.Level)
			}
			if d.Inserted {
				inserted++
				if d.Reason != "inserted" {
					t.Errorf("%s: inserted decision has reason %q", tc.prog, d.Reason)
				}
				if d.MCost <= 0 {
					t.Errorf("%s: inserted decision for target %#x has mcost %d",
						tc.prog, d.Target, d.MCost)
				}
			}
		}
		if inserted != rep.Inserted {
			t.Errorf("%s: %d inserted decisions, report says %d prefetches",
				tc.prog, inserted, rep.Inserted)
		}
		if got := q.NPrefetch(); got != rep.Inserted {
			t.Errorf("%s: program has %d prefetches, report says %d",
				tc.prog, got, rep.Inserted)
		}
		if rep.Inserted > 0 && len(rep.Decisions) == 0 {
			t.Errorf("%s: prefetches inserted but no decisions logged", tc.prog)
		}
	}
}
