package core

import (
	"context"
	"math/rand"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/wcet"
)

var testPar = wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}

func optimize(t *testing.T, p *isa.Program, cfg cache.Config) (*isa.Program, *Report) {
	t.Helper()
	q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(cfg), Options{Par: testPar})
	if err != nil {
		t.Fatalf("OptimizeHier(%s): %v", p.Name, err)
	}
	return q, rep
}

// thrasher is the canonical profitable scenario: a hot loop whose body
// exceeds a direct-mapped cache, so every iteration replaces blocks it will
// need again in the next iteration.
func thrasher() *isa.Program {
	return isa.Build("thrash", isa.Loop(20, 16, isa.Code(90)))
}

func thrashCfg() cache.Config {
	return cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 256}
}

func TestOptimizeInsertsOnThrashingLoop(t *testing.T) {
	p := thrasher()
	q, rep := optimize(t, p, thrashCfg())
	if rep.Inserted == 0 {
		t.Fatalf("no prefetches inserted; report = %+v", rep)
	}
	if q.NPrefetch() != rep.Inserted {
		t.Fatalf("program has %d prefetches, report says %d", q.NPrefetch(), rep.Inserted)
	}
	if rep.TauAfter >= rep.TauBefore {
		t.Fatalf("τ_w did not improve: %d -> %d", rep.TauBefore, rep.TauAfter)
	}
	if rep.MissesAfter >= rep.MissesBefore {
		t.Fatalf("WCET misses did not improve: %d -> %d", rep.MissesBefore, rep.MissesAfter)
	}
}

func TestOptimizeStraightLineColdChain(t *testing.T) {
	// Straight-line code larger than the cache: the reverse analysis (the
	// paper's Figure 1 scenario) detects the future cold/conflict misses
	// through the backward window and prefetches them ahead, converting
	// part of the cold chain into hits.
	p := isa.Build("cold", isa.Code(100))
	q, rep := optimize(t, p, thrashCfg())
	if rep.Inserted == 0 {
		t.Fatalf("no cold-chain prefetches inserted; report %+v", rep)
	}
	if rep.TauAfter >= rep.TauBefore {
		t.Fatalf("τ_w not improved: %d -> %d", rep.TauBefore, rep.TauAfter)
	}
	if !isa.PrefetchEquivalent(p, q) {
		t.Fatal("output must equal input modulo prefetches")
	}
}

func TestOptimizeFitsInCacheNoWork(t *testing.T) {
	// Everything fits: no replacements at all.
	p := isa.Build("fits", isa.Loop(10, 8, isa.Code(20)))
	_, rep := optimize(t, p, cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192})
	if rep.Inserted != 0 {
		t.Fatalf("inserted %d prefetches although the program fits in cache", rep.Inserted)
	}
	if rep.Candidates != 0 {
		t.Fatalf("found %d replacement candidates in a fitting program", rep.Candidates)
	}
}

func randomProgram(rng *rand.Rand, name string) *isa.Program {
	var gen func(depth int) []isa.Node
	gen = func(depth int) []isa.Node {
		var nodes []isa.Node
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(6); {
			case k < 2 || depth >= 2:
				nodes = append(nodes, isa.Code(4+rng.Intn(40)))
			case k < 4:
				nodes = append(nodes, isa.If(rng.Float64(), gen(depth+1), gen(depth+1)))
			default:
				b := 2 + rng.Intn(8)
				nodes = append(nodes, isa.Loop(b, float64(b-1), gen(depth+1)...))
			}
		}
		return nodes
	}
	return isa.Build(name, gen(0)...)
}

// Theorem 1 as a property test: over a corpus of random structured programs
// and cache configurations, the optimizer never increases τ_w and always
// returns a prefetch-equivalent program.
func TestTheorem1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	cfgs := []cache.Config{
		{Assoc: 1, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 2, BlockBytes: 32, CapacityBytes: 512},
	}
	for i := 0; i < 12; i++ {
		p := randomProgram(rng, "t1")
		for _, cfg := range cfgs {
			q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(cfg), Options{Par: testPar})
			if err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
			if rep.TauAfter > rep.TauBefore {
				t.Fatalf("program %d cfg %v: τ_w increased %d -> %d", i, cfg, rep.TauBefore, rep.TauAfter)
			}
			if !isa.PrefetchEquivalent(p, q) {
				t.Fatalf("program %d: not prefetch-equivalent", i)
			}
			if rep.MissesAfter > rep.MissesBefore {
				t.Fatalf("program %d: WCET misses increased", i)
			}
			// Independent re-verification with a fresh analysis.
			before, err := wcet.AnalyzeHier(context.Background(), p, cache.Hier1(cfg), testPar)
			if err != nil {
				t.Fatal(err)
			}
			after, err := wcet.AnalyzeHier(context.Background(), q, cache.Hier1(cfg), testPar)
			if err != nil {
				t.Fatal(err)
			}
			if after.TauW > before.TauW {
				t.Fatalf("program %d: independent check: τ_w %d -> %d", i, before.TauW, after.TauW)
			}
			if before.TauW != rep.TauBefore || after.TauW != rep.TauAfter {
				t.Fatalf("program %d: report disagrees with fresh analysis", i)
			}
		}
	}
}

func TestInsertedPrefetchesAreWellFormed(t *testing.T) {
	p := thrasher()
	q, rep := optimize(t, p, thrashCfg())
	if rep.Inserted == 0 {
		t.Skip("scenario produced no insertions")
	}
	if err := isa.Validate(q); err != nil {
		t.Fatalf("optimized program invalid: %v", err)
	}
	for _, b := range q.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != isa.KindPrefetch {
				continue
			}
			tgt := q.Blocks[in.Target.Block]
			if in.Target.Index >= len(tgt.Instrs) {
				t.Fatal("dangling prefetch target")
			}
			if tgt.Instrs[in.Target.Index].Kind == isa.KindPrefetch {
				t.Fatal("prefetch targets another prefetch (Equation 9 forbids this)")
			}
		}
	}
}

func TestInputProgramUnmodified(t *testing.T) {
	p := thrasher()
	orig := p.Clone()
	optimize(t, p, thrashCfg())
	if p.NInstr() != orig.NInstr() {
		t.Fatal("OptimizeHier mutated its input")
	}
	for bi := range p.Blocks {
		for ii := range p.Blocks[bi].Instrs {
			if p.Blocks[bi].Instrs[ii] != orig.Blocks[bi].Instrs[ii] {
				t.Fatal("OptimizeHier mutated input instructions")
			}
		}
	}
}

func TestMaxInsertionsCap(t *testing.T) {
	p := thrasher()
	q, rep, err := OptimizeHier(context.Background(), p, cache.Hier1(thrashCfg()), Options{Par: testPar, MaxInsertions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted > 2 || q.NPrefetch() > 2 {
		t.Fatalf("cap ignored: %d insertions", rep.Inserted)
	}
}

func TestDisableValidationStillEquivalent(t *testing.T) {
	p := thrasher()
	q, _, err := OptimizeHier(context.Background(), p, cache.Hier1(thrashCfg()), Options{Par: testPar, DisableValidation: true, MaxInsertions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !isa.PrefetchEquivalent(p, q) {
		t.Fatal("ablated optimizer broke prefetch equivalence")
	}
}

func TestReportCountsConsistent(t *testing.T) {
	p := thrasher()
	_, rep := optimize(t, p, thrashCfg())
	rejected := rep.RejectedTerminator + rep.RejectedNoUse + rep.RejectedAlreadyHit +
		rep.RejectedIneffective + rep.RejectedTargetIsPft + rep.RejectedDuplicate +
		rep.RejectedValidation
	if rep.Inserted+rejected > rep.Candidates {
		t.Fatalf("more outcomes (%d+%d) than candidates (%d)", rep.Inserted, rejected, rep.Candidates)
	}
	if rep.Passes < 1 {
		t.Fatal("at least one pass must run")
	}
	if rep.FetchesAfter < rep.FetchesBefore {
		t.Fatalf("WCET fetches decreased: %d -> %d", rep.FetchesBefore, rep.FetchesAfter)
	}
}
