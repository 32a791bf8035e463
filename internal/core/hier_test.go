package core

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/wcet"
)

var hierPar = wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10, L2HitCycles: 3}

// hierTestHierarchy builds the canonical L2-profitable geometry: an L1 so
// small that prefetched blocks are evicted again before their use (every
// Λ-window spans more distinct L1 blocks than the L1 holds), backed by an
// L2 that is larger than the L1 but still smaller than the loop body, so
// the backward window at L2 granularity sees replacement events too.
func hierTestHierarchy() cache.Hierarchy {
	return cache.Hierarchy{
		L1: cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 32},
		L2: cache.Config{Assoc: 2, BlockBytes: 32, CapacityBytes: 256},
	}
}

func TestOptimizeHierSingleLevelIdentical(t *testing.T) {
	// The zero-value hierarchy is the single-level optimizer (bit identity
	// is pinned by the pipeline golden): it inserts on the thrashing loop
	// and never reports L2 misses.
	_, rep, err := OptimizeHier(context.Background(), thrasher(), cache.Hier1(thrashCfg()), Options{Par: testPar})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Fatalf("no prefetches inserted: %+v", rep)
	}
	if rep.L2MissesBefore != 0 || rep.L2MissesAfter != 0 {
		t.Fatalf("single-level run reported L2 misses: %+v", rep)
	}
}

func TestOptimizeHierInvalidHierarchy(t *testing.T) {
	h := hierTestHierarchy()
	h.L2.CapacityBytes = 16 // smaller than the L1
	_, _, err := OptimizeHier(context.Background(), thrasher(), h, Options{Par: hierPar})
	if err == nil {
		t.Fatal("want error for degenerate hierarchy (L2 smaller than L1)")
	}
}

func TestOptimizeHierNeedsL2HitCycles(t *testing.T) {
	_, _, err := OptimizeHier(context.Background(), thrasher(), hierTestHierarchy(), Options{Par: testPar})
	if err == nil {
		t.Fatal("want error when an L2 is configured but Par.L2HitCycles is 0")
	}
}

func TestOptimizeHierInsertsL2Prefetches(t *testing.T) {
	p := thrasher()
	h := hierTestHierarchy()
	q, rep, err := OptimizeHier(context.Background(), p, h, Options{Par: hierPar})
	if err != nil {
		t.Fatal(err)
	}
	nL2 := 0
	for _, b := range q.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == isa.KindPrefetch && in.Level == 2 {
				nL2++
			}
		}
	}
	if nL2 == 0 {
		t.Fatalf("no Level-2 prefetches inserted; report %+v", rep)
	}
	if rep.TauAfter > rep.TauBefore {
		t.Fatalf("τ_w grew: %d -> %d", rep.TauBefore, rep.TauAfter)
	}
	if rep.L2MissesAfter >= rep.L2MissesBefore {
		t.Fatalf("L2 misses did not improve: %d -> %d", rep.L2MissesBefore, rep.L2MissesAfter)
	}
	if !isa.PrefetchEquivalent(p, q) {
		t.Fatal("output must equal input modulo prefetches")
	}
}

// TestOptimizeHierTheorem1 re-proves the Theorem 1 property against the
// hierarchy: the optimized program's WCET bound never exceeds the input's,
// and the joint WCET-scenario miss count never grows.
func TestOptimizeHierTheorem1(t *testing.T) {
	progs := []*isa.Program{
		thrasher(),
		isa.Build("cold", isa.Code(100)),
		isa.Build("nest", isa.Loop(8, 6, isa.Code(20), isa.Loop(4, 3, isa.Code(40)))),
	}
	for _, p := range progs {
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
			h := hierTestHierarchy()
			h.L1.Policy = pol
			h.L2.Policy = pol
			q, rep, err := OptimizeHier(context.Background(), p, h, Options{Par: hierPar})
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, pol, err)
			}
			if rep.TauAfter > rep.TauBefore {
				t.Errorf("%s/%s: τ_w grew %d -> %d", p.Name, pol, rep.TauBefore, rep.TauAfter)
			}
			joint0 := rep.MissesBefore + rep.L2MissesBefore
			joint1 := rep.MissesAfter + rep.L2MissesAfter
			if joint1 > joint0 {
				t.Errorf("%s/%s: joint misses grew %d -> %d", p.Name, pol, joint0, joint1)
			}
			res, err := wcet.AnalyzeHier(context.Background(), q, h, hierPar)
			if err != nil {
				t.Fatalf("%s/%s: re-analysis: %v", p.Name, pol, err)
			}
			if res.TauW != rep.TauAfter {
				t.Errorf("%s/%s: report τ_w %d != fresh analysis %d", p.Name, pol, rep.TauAfter, res.TauW)
			}
		}
	}
}

// TestOptimizeHierExplainLevels checks that the explain report carries
// per-level verdicts for hierarchy runs: committed Level-2 decisions state
// the level and the per-level classifications at the use.
func TestOptimizeHierExplainLevels(t *testing.T) {
	_, rep, err := OptimizeHier(context.Background(), thrasher(), hierTestHierarchy(),
		Options{Par: hierPar, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	sawL2 := false
	for _, d := range rep.Decisions {
		if d.Inserted && d.Level == 2 {
			sawL2 = true
			if d.L1Class == "" || d.L2Class == "" {
				t.Fatalf("L2 insertion decision missing per-level classes: %+v", d)
			}
			if d.MCost <= d.PCost {
				t.Errorf("Equation 9 gap not visible: mcost %d <= pcost %d", d.MCost, d.PCost)
			}
		}
	}
	if !sawL2 {
		t.Skip("no Level-2 insertion on this geometry (covered by TestOptimizeHierInsertsL2Prefetches)")
	}
}
