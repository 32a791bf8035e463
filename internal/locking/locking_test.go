package locking

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/wcet"
)

var testPar = wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}

func TestSelectRespectsWayLimits(t *testing.T) {
	p := isa.Build("sel", isa.Loop(20, 16, isa.Code(120)), isa.Code(30))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	s, err := Select(context.Background(), p, cfg, testPar)
	if err != nil {
		t.Fatal(err)
	}
	perSet := map[int]int{}
	for blk := range s.Blocks {
		perSet[cfg.SetOf(blk)]++
	}
	for set, n := range perSet {
		if n > cfg.Assoc {
			t.Fatalf("set %d holds %d locked blocks, exceeds associativity %d", set, n, cfg.Assoc)
		}
	}
	if len(s.Blocks) == 0 {
		t.Fatal("nothing locked")
	}
}

func TestSelectPrefersHotBlocks(t *testing.T) {
	// A hot loop and a cold tail: the loop's blocks must win the ways.
	p := isa.Build("hot", isa.Loop(50, 45, isa.Code(24)), isa.Code(200))
	cfg := cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 128} // 8 blocks lockable
	s, err := Select(context.Background(), p, cfg, testPar)
	if err != nil {
		t.Fatal(err)
	}
	lay := isa.NewLayout(p)
	head := p.Loops[0].Head
	hotBlk := lay.MemBlock(isa.InstrRef{Block: head, Index: 0}, cfg.BlockBytes)
	if !s.Blocks[hotBlk] {
		t.Fatal("the loop header's block must be locked")
	}
}

func TestLockedWCETConsistentWithSim(t *testing.T) {
	// With deterministic control flow, the locked-cache WCET must equal the
	// simulated locked execution time.
	p := isa.Build("det", isa.Loop(10, 10, isa.Code(20)), isa.Code(10))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	s, err := Select(context.Background(), p, cfg, testPar)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.RunHier(p, cache.Hier1(cfg), sim.Options{Par: testPar, Runs: 1, Locked: s.Blocks})
	if st.Cycles != s.TauW {
		t.Fatalf("locked sim %d cycles vs locked WCET %d", st.Cycles, s.TauW)
	}
}

func TestLockingGivesUpACET(t *testing.T) {
	// Section 2.3: cache locking trades average-case performance for
	// predictability. With a hot loop slightly exceeding the lockable
	// capacity, the locked cache misses the overflow every iteration while
	// an unlocked LRU cache keeps most of it resident — so the locked ACET
	// must be worse, which is exactly what makes locking increasingly
	// energy-inefficient as static power grows.
	p := isa.Build("overflow", isa.Loop(30, 28, isa.Code(150)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	sel, err := Select(context.Background(), p, cfg, testPar)
	if err != nil {
		t.Fatal(err)
	}
	locked := sim.RunHier(p, cache.Hier1(cfg), sim.Options{Par: testPar, Runs: 1, Locked: sel.Blocks})
	unlocked := sim.RunHier(p, cache.Hier1(cfg), sim.Options{Par: testPar, Runs: 1})
	if locked.Cycles <= unlocked.Cycles {
		t.Fatalf("locked ACET (%d) should exceed unlocked ACET (%d) on an overflowing loop",
			locked.Cycles, unlocked.Cycles)
	}
}

func TestLockedBoundCanBeatUnlockedBound(t *testing.T) {
	// The flip side (Section 2.2): for a fitting hot loop the locked
	// cache's *bound* is exact, while cache-aware analysis keeps some
	// conservatism at control-flow joins — the predictability argument of
	// the locking camp.
	p := isa.Build("fit", isa.Loop(30, 28, isa.IfThen(0.5, isa.Code(40)), isa.Code(40)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	sel, err := Select(context.Background(), p, cfg, testPar)
	if err != nil {
		t.Fatal(err)
	}
	unlocked, err := wcet.AnalyzeHier(context.Background(), p, cache.Hier1(cfg), testPar)
	if err != nil {
		t.Fatal(err)
	}
	if sel.TauW > unlocked.TauW+unlocked.TauW/2 {
		t.Fatalf("locked bound (%d) wildly above unlocked (%d) for a fitting loop", sel.TauW, unlocked.TauW)
	}
}

func TestLockedMissesCount(t *testing.T) {
	p := isa.Build("m", isa.Code(100))
	cfg := cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 64}
	sel, err := Select(context.Background(), p, cfg, testPar)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Misses == 0 {
		t.Fatal("a 100-instruction program cannot fully fit 4 locked blocks")
	}
}
