package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/reuse"
	"ucp/internal/wcet"
	"ucp/internal/wcet/wcettest"
)

// TestReuseDifferential runs the optimizer with reuse.Poison on, so every
// buffer a rolled-back validation gives back (its analyses' rows, tables
// and vectors, its derived layout's rows, its undo record's instruction
// copies) is overwritten with sentinels the moment it is given back. Every
// re-analysis must equal a from-scratch analysis of the same program state
// (wcettest.SameAsFull), and the optimized program and the report must
// equal those of a run without poisoning. It runs fdct on the L1 alone and
// behind an 8 KiB L2, under every policy or the one UCP_POLICY names.
func TestReuseDifferential(t *testing.T) {
	bm, ok := malardalen.ByName("fdct")
	if !ok {
		t.Fatal("unknown program fdct")
	}
	for _, pol := range cachetest.Policies(t) {
		l1 := cache.Table2()[4]
		l1.Policy = pol
		for _, h := range []cache.Hierarchy{
			cache.Hier1(l1),
			{L1: l1, L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: pol}},
		} {
			par := testPar
			if h.HasL2() {
				par.L2HitCycles = 3
			}
			opt := Options{Par: par, ValidationBudget: 80}
			where := fmt.Sprintf("fdct/%s", h)
			want, wantRep, err := OptimizeHier(context.Background(), bm.Prog, h, opt)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if wantRep.Inserted == 0 || wantRep.RejectedValidation == 0 {
				t.Fatalf("%s: %d inserted, %d rejected by validation; the run needs both", where, wantRep.Inserted, wantRep.RejectedValidation)
			}
			checks := 0
			testRefreshCheck = func(inc *wcet.Result) {
				checks++
				if err := wcettest.SameAsFull(inc); err != nil {
					t.Fatalf("%s: validation %d: %v", where, checks, err)
				}
			}
			restore := reuse.Poison()
			got, gotRep, err := OptimizeHier(context.Background(), bm.Prog, h, opt)
			restore()
			testRefreshCheck = nil
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if checks != gotRep.Validations {
				t.Fatalf("%s: %d re-analyses checked of %d validations", where, checks, gotRep.Validations)
			}
			if isa.Fingerprint(got) != isa.Fingerprint(want) || !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("%s: the poisoned run's program or report differs from the plain run's", where)
			}
		}
	}
}
