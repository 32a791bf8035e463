package core

import (
	"context"
	"runtime"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/malardalen"
)

// validationAllocBudget bounds the bytes allocated per validation of the
// cell in TestValidationAllocBudget: about 1.5× the 7.5 KB it measures
// (283 validations; 7.6 KB under -race). A rolled-back validation gives
// its transfer and classification rows, per-block tables, WCET vectors,
// derived layout rows and undo copies back to its chain, and the next
// validation takes them, so what remains is mostly the accepted
// validations' buffers and the cold analysis. Before that the cell
// measured 38.7 KB (39.8 KB when the budget was last set, 39.9 KB under
// -race), the transfer rows of the blocks an edit moved about 18 KB of it;
// with one slice header per cache set 39.3 KB. Before t_w and
// effectiveness lost their per-result copies, the same cell allocated
// 49.1 KB per validation; before a validation undid only the blocks its
// edit wrote, derived its layout from the previous one and retired the
// result it replaced, 66.6 KB; before rolled-back re-analyses returned
// their abstract states to the pool and results stopped retaining
// in-states, 336 KB.
const validationAllocBudget = 11_400

// TestValidationAllocBudget guards the allocation cost of the optimizer's
// validate loop on one fixed sub-second cell: a regression that makes each
// incremental re-analysis allocate fresh abstract states again (instead of
// recycling what a rollback frees) shows up here long before it shows up
// as time.
func TestValidationAllocBudget(t *testing.T) {
	bm, ok := malardalen.ByName("compress")
	if !ok {
		t.Fatal("unknown program compress")
	}
	cfg := cache.Table2()[13]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, rep, err := OptimizeHier(context.Background(), bm.Prog, cache.Hier1(cfg), Options{Par: testPar})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Validations == 0 {
		t.Fatal("no validations ran; the budget is vacuous")
	}
	perValidation := (after.TotalAlloc - before.TotalAlloc) / uint64(rep.Validations)
	t.Logf("%d validations, %d bytes allocated per validation (budget %d)", rep.Validations, perValidation, validationAllocBudget)
	if perValidation > validationAllocBudget {
		t.Fatalf("%d bytes allocated per validation, budget %d", perValidation, validationAllocBudget)
	}
}

// hierValidationAllocBudget bounds the bytes allocated per validation of the
// L1 + L2 cell in TestHierValidationAllocBudget: about 1.5× the 35.5 KB it
// measures (63 validations; 35.9 KB under -race), most of it abstract
// states the chains' pools warm up with. Before rolled-back validations
// gave their buffers back to their chains it measured 74.7 KB (79.2 KB
// when the budget was last set, 79.7 KB under -race; 78.2 KB with one
// slice header per cache set, 88.7 KB before t_w and effectiveness lost
// their per-result copies, 106.0 KB before the edit-scoped validation).
const hierValidationAllocBudget = 54_000

// TestHierValidationAllocBudget is TestValidationAllocBudget behind an
// 8 KiB L2: each validation re-analyzes both levels, and the L2's Uncertain
// accesses (L1 verdicts that are neither always-hit nor always-miss) and
// the classification rows the fixpoint records must not allocate per call.
func TestHierValidationAllocBudget(t *testing.T) {
	bm, ok := malardalen.ByName("compress")
	if !ok {
		t.Fatal("unknown program compress")
	}
	h := cache.Hier1(cache.Table2()[13])
	h.L2 = cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: h.L1.Policy}
	par := testPar
	par.L2HitCycles = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, rep, err := OptimizeHier(context.Background(), bm.Prog, h, Options{Par: par})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Validations == 0 {
		t.Fatal("no validations ran; the budget is vacuous")
	}
	perValidation := (after.TotalAlloc - before.TotalAlloc) / uint64(rep.Validations)
	t.Logf("%d validations, %d bytes allocated per validation (budget %d)", rep.Validations, perValidation, hierValidationAllocBudget)
	if perValidation > hierValidationAllocBudget {
		t.Fatalf("%d bytes allocated per validation, budget %d", perValidation, hierValidationAllocBudget)
	}
}
