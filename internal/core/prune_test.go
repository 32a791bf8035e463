package core

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// TestPruneRemovesHandInsertedParasite plants an obviously useless prefetch
// (its target is resident whenever it runs) and checks the cleanup pass
// deletes it without touching anything useful.
func TestPruneRemovesHandInsertedParasite(t *testing.T) {
	p := isa.Build("parasite", isa.Loop(20, 16, isa.Code(90)))
	cfg := thrashCfg()

	// Optimize normally first: the output must not contain prefetches whose
	// removal would be free.
	q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(cfg), Options{Par: testPar})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Skip("no insertions to check")
	}
	before, err := wcet.AnalyzeHier(context.Background(), q, cache.Hier1(cfg), testPar)
	if err != nil {
		t.Fatal(err)
	}
	// Remove each remaining prefetch by hand: every removal must hurt
	// (otherwise the pruner left a parasite behind).
	for bi, b := range q.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			if b.Instrs[i].Kind != isa.KindPrefetch {
				continue
			}
			trial := q.Clone()
			trial.RemoveInstr(isa.InstrRef{Block: bi, Index: i})
			after, err := wcet.AnalyzeHier(context.Background(), trial, cache.Hier1(cfg), testPar)
			if err != nil {
				t.Fatal(err)
			}
			if after.TauW <= before.TauW && after.Misses <= before.Misses {
				t.Fatalf("prefetch at block %d index %d is a parasite the pruner missed", bi, i)
			}
		}
	}
}

// TestPlacementHoistsOutOfLoop checks the downstream-sliding placement: a
// prefetch whose target is only used after a loop must not execute once per
// iteration.
func TestPlacementHoistsOutOfLoop(t *testing.T) {
	// A hot loop followed by a tail that conflicts with loop-resident
	// blocks: the tail's blocks get evicted during the loop and their use
	// is after it.
	p := isa.Build("hoist",
		isa.Code(8),
		isa.Loop(40, 36, isa.Code(70)),
		isa.Code(60), // tail, overlapping the loop's sets
	)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(cfg), Options{Par: testPar})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Skip("nothing inserted in this scenario")
	}
	// Count dynamic prefetch executions: with hoisting they must be far
	// fewer than (insertions × loop bound).
	s := sim.RunHier(q, cache.Hier1(cfg), sim.Options{Par: testPar, Runs: 1, Seed: 1})
	perIteration := int64(rep.Inserted) * 36
	if s.PrefetchExecuted >= perIteration {
		t.Fatalf("prefetches executed %d times — placement did not hoist (bound was %d)",
			s.PrefetchExecuted, perIteration)
	}
}

func TestDisableEffectivenessFindsMoreCandidates(t *testing.T) {
	p := thrasher()
	strict, err1 := count(p, Options{Par: testPar})
	loose, err2 := count(p, Options{Par: testPar, DisableEffectiveness: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if loose.RejectedIneffective != 0 {
		t.Fatal("ablation must disable the effectiveness rejection")
	}
	if strict.RejectedIneffective > 0 && loose.Candidates < strict.Candidates {
		t.Fatal("disabling a filter cannot shrink the candidate stream")
	}
}

func count(p *isa.Program, o Options) (*Report, error) {
	_, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(thrashCfg()), o)
	return rep, err
}

// TestBackwardWindowMatchesAssociativity checks the detection semantics
// directly: with associativity A, a straight-line program whose per-set
// reuse distance exceeds A yields candidates, and one within A does not.
func TestBackwardWindowMatchesAssociativity(t *testing.T) {
	par := testPar
	// 2-way cache with 2 sets (64B): a straight line through 6 blocks puts
	// 3 blocks in each set — one over the ways.
	p := isa.Build("bw", isa.Code(22))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64}
	_, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(cfg), Options{Par: par})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 {
		t.Fatal("3 blocks per 2-way set must overflow the backward window")
	}

	// Same program, 4-way 1-set cache of the same capacity: 6 blocks still
	// overflow; but a tiny program that fits (2 blocks per set) must not.
	small := isa.Build("bw2", isa.Code(10)) // 12 instrs = 3 blocks over 2 sets
	_, rep2, err := OptimizeHier(context.Background(), small, cache.Hier1(cfg), Options{Par: par})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Candidates != 0 {
		t.Fatalf("a fitting program produced %d candidates", rep2.Candidates)
	}
}

// TestOptimizeAcrossTable2 smoke-tests the optimizer against every cache
// configuration of the paper on one mid-size program.
func TestOptimizeAcrossTable2(t *testing.T) {
	p := isa.Build("sweep",
		isa.Code(30),
		isa.Loop(12, 10, isa.Code(120), isa.IfThen(0.8, isa.Code(40))),
		isa.Code(25),
	)
	for i, cfg := range cache.Table2() {
		q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(cfg), Options{Par: testPar, ValidationBudget: 30})
		if err != nil {
			t.Fatalf("k%d: %v", i+1, err)
		}
		if rep.TauAfter > rep.TauBefore {
			t.Fatalf("k%d: Theorem 1 violated", i+1)
		}
		if !isa.PrefetchEquivalent(p, q) {
			t.Fatalf("k%d: equivalence broken", i+1)
		}
	}
}

// TestExpansionReusedAcrossInsertions pins the structural assumption the
// optimizer relies on: insertions never change the expanded graph shape.
func TestExpansionReusedAcrossInsertions(t *testing.T) {
	p := thrasher()
	x1, err := vivu.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(thrashCfg()), Options{Par: testPar})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Skip("no insertions")
	}
	x2, err := vivu.Expand(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(x1.Blocks) != len(x2.Blocks) {
		t.Fatal("insertion changed the expanded block set")
	}
	for i := range x1.Blocks {
		if x1.Blocks[i].Orig != x2.Blocks[i].Orig || x1.Blocks[i].Ctx != x2.Blocks[i].Ctx {
			t.Fatal("insertion permuted the expansion")
		}
	}
}
