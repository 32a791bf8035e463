package sim

import (
	"testing"
	"testing/quick"

	"ucp/internal/cache"
	"ucp/internal/hwpref"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
)

var testPar = wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}

func run(p *isa.Program, cfg cache.Config, o Options) Stats {
	if o.Par == (wcet.Params{}) {
		o.Par = testPar
	}
	return RunHier(p, cache.Hier1(cfg), o)
}

func TestStraightLineDeterministic(t *testing.T) {
	p := isa.Build("s", isa.Code(30))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	s := run(p, cfg, Options{Runs: 1})
	// 32 instructions, 16-byte blocks, aligned base: 8 cold misses.
	if s.Fetches != 32 {
		t.Fatalf("fetches = %d, want 32", s.Fetches)
	}
	if s.Misses != 8 {
		t.Fatalf("misses = %d, want 8", s.Misses)
	}
	wantCycles := int64(8*10 + 24*1)
	if s.Cycles != wantCycles {
		t.Fatalf("cycles = %d, want %d", s.Cycles, wantCycles)
	}
	if s.DRAMReads != 8 || s.CacheFills != 8 {
		t.Fatalf("dram=%d fills=%d, want 8/8", s.DRAMReads, s.CacheFills)
	}
}

func TestRunsAggregate(t *testing.T) {
	p := isa.Build("agg", isa.Code(30))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	one := run(p, cfg, Options{Runs: 1})
	three := run(p, cfg, Options{Runs: 3})
	if three.Fetches != 3*one.Fetches || three.Cycles != 3*one.Cycles {
		t.Fatalf("three cold runs must be exactly three times one run")
	}
	if three.ACETCycles() != float64(one.Cycles) {
		t.Fatalf("ACETCycles = %v, want %v", three.ACETCycles(), one.Cycles)
	}
}

func TestLoopRespectsAvgIters(t *testing.T) {
	// Deterministic loop (avg == bound): body must run exactly bound times.
	p := isa.Build("loop", isa.Loop(10, 10, isa.Code(5)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	s := run(p, cfg, Options{Runs: 1})
	// prologue 1 + jump 1, header 2 per check (11 checks), body 6 per
	// iteration (10 iterations), epilogue 1.
	want := int64(2 + 11*2 + 10*6 + 1)
	if s.Fetches != want {
		t.Fatalf("fetches = %d, want %d", s.Fetches, want)
	}
}

func TestSoftwarePrefetchConvertsMiss(t *testing.T) {
	// A prefetch early in a long straight block, targeting an instruction
	// far ahead: the target's block must arrive before execution does.
	p := isa.Build("pf", isa.Code(60))
	tgt := isa.InstrRef{Block: 0, Index: 50}
	p.InsertInstr(isa.InstrRef{Block: 0, Index: 1}, isa.Instr{Kind: isa.KindPrefetch, Target: tgt})
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}

	base := run(isa.Build("pf0", isa.Code(60)), cfg, Options{Runs: 1})
	with := run(p, cfg, Options{Runs: 1})
	if with.PrefetchExecuted != 1 || with.PrefetchIssued != 1 {
		t.Fatalf("prefetch not executed/issued: %+v", with)
	}
	if with.Misses != base.Misses-1 {
		t.Fatalf("misses with prefetch = %d, want %d", with.Misses, base.Misses-1)
	}
	// DRAM traffic is unchanged: the fill replaced the demand miss.
	if with.DRAMReads != base.DRAMReads {
		t.Fatalf("DRAM reads changed: %d vs %d", with.DRAMReads, base.DRAMReads)
	}
}

func TestPrefetchTooLateStalls(t *testing.T) {
	// Prefetch immediately before the use: the fetch must stall on the
	// in-flight fill instead of paying a full miss.
	p := isa.Build("late", isa.Code(40))
	tgt := isa.InstrRef{Block: 0, Index: 20} // 16-byte block boundary at index 20 (base aligned)
	p.InsertInstr(isa.InstrRef{Block: 0, Index: 18}, isa.Instr{Kind: isa.KindPrefetch, Target: tgt})
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	s := run(p, cfg, Options{Runs: 1})
	if s.Stalls == 0 {
		t.Fatalf("expected a stall on the in-flight fill: %+v", s)
	}
	if s.StallCycles <= 0 || s.StallCycles > testPar.Lambda {
		t.Fatalf("stall cycles = %d, want within (0, Λ]", s.StallCycles)
	}
}

func TestRedundantPrefetchSkipsDRAM(t *testing.T) {
	p := isa.Build("red", isa.Code(30))
	// Target the prefetch's own surroundings: resident by then.
	p.InsertInstr(isa.InstrRef{Block: 0, Index: 10}, isa.Instr{Kind: isa.KindPrefetch, Target: isa.InstrRef{Block: 0, Index: 9}})
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	s := run(p, cfg, Options{Runs: 1})
	if s.PrefetchRedundant != 1 || s.PrefetchIssued != 0 {
		t.Fatalf("redundant prefetch accounting: %+v", s)
	}
}

func TestLockedCacheSemantics(t *testing.T) {
	p := isa.Build("lock", isa.Loop(5, 5, isa.Code(8)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	lay := isa.NewLayout(p)
	// Lock every block the program touches: everything hits.
	locked := map[uint64]bool{}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			locked[lay.MemBlock(isa.InstrRef{Block: b.ID, Index: i}, cfg.BlockBytes)] = true
		}
	}
	all := run(p, cfg, Options{Runs: 1, Locked: locked})
	if all.Misses != 0 || all.DRAMReads != 0 {
		t.Fatalf("fully locked cache must not miss: %+v", all)
	}
	// Lock nothing: everything misses.
	none := run(p, cfg, Options{Runs: 1, Locked: map[uint64]bool{}})
	if none.Hits != 0 || none.Misses != none.Fetches {
		t.Fatalf("empty locked cache must always miss: %+v", none)
	}
}

func TestHardwarePrefetcherReducesSequentialMisses(t *testing.T) {
	p := isa.Build("hw", isa.Code(400))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	base := run(p, cfg, Options{Runs: 1})
	tagged := run(p, cfg, Options{Runs: 1, HW: &hwpref.NextLine{Policy: hwpref.Tagged}})
	if tagged.HWIssued == 0 {
		t.Fatal("tagged next-line prefetcher never fired")
	}
	if tagged.Cycles >= base.Cycles {
		t.Fatalf("sequential prefetching should speed up straight-line code: %d vs %d", tagged.Cycles, base.Cycles)
	}
}

func TestSeedsDeterministic(t *testing.T) {
	p := isa.Build("det", isa.Loop(20, 12, isa.IfThen(0.5, isa.Code(12)), isa.Code(4)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	a := run(p, cfg, Options{Runs: 2, Seed: 42})
	b := run(p, cfg, Options{Runs: 2, Seed: 42})
	if a != b {
		t.Fatalf("same seed must reproduce identical stats:\n%+v\n%+v", a, b)
	}
	c := run(p, cfg, Options{Runs: 2, Seed: 43})
	if a == c {
		t.Fatal("different seeds should perturb a data-dependent program")
	}
}

// Property: cycle accounting is exactly hits + misses + stalls.
func TestCycleAccountingProperty(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	f := func(seed int64, n uint8) bool {
		p := isa.Build("prop", isa.Loop(3+int(n%8), float64(2+n%4), isa.Code(10+int(n)%60)), isa.Code(int(n)%30))
		s := run(p, cfg, Options{Runs: 1, Seed: seed})
		expect := s.Hits*testPar.HitCycles + s.Misses*testPar.MissCycles() + s.StallCycles
		return s.Cycles == expect && s.Hits+s.Misses == s.Fetches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: miss count never exceeds the number of distinct memory blocks
// times the visits... weaker but useful: misses ≤ fetches and the miss rate
// is within [0, 1].
func TestMissBoundsProperty(t *testing.T) {
	cfg := cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 128}
	f := func(seed int64) bool {
		p := isa.Build("mb", isa.Loop(6, 4, isa.Code(40)), isa.Code(20))
		s := run(p, cfg, Options{Runs: 2, Seed: seed})
		return s.Misses <= s.Fetches && s.MissRate() >= 0 && s.MissRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAccountMatchesStats(t *testing.T) {
	p := isa.Build("acc", isa.Code(50))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	s := run(p, cfg, Options{Runs: 1})
	a := s.Account()
	if a.CacheReads != s.Fetches || a.DRAMReads != s.DRAMReads || a.Cycles != s.Cycles || a.CacheFills != s.CacheFills {
		t.Fatalf("account mismatch: %+v vs %+v", a, s)
	}
}

// TestLoopTableMatchesLoopOf pins the simulator's per-run loop table to
// isa.(*Program).LoopOf — innermost loop and header flag — for every block
// of every Mälardalen program.
func TestLoopTableMatchesLoopOf(t *testing.T) {
	bms := malardalen.All()
	if len(bms) != 37 {
		t.Fatalf("%d Mälardalen programs, want 37", len(bms))
	}
	for _, bm := range bms {
		p := bm.Prog
		inner, head := loopTable(p)
		for _, b := range p.Blocks {
			li := p.LoopOf(b.ID)
			if inner[b.ID] != li {
				t.Fatalf("%s: block %d: table loop %d, LoopOf %d", bm.Name, b.ID, inner[b.ID], li)
			}
			if want := li >= 0 && p.Loops[li].Head == b.ID; head[b.ID] != want {
				t.Fatalf("%s: block %d: table head %v, want %v", bm.Name, b.ID, head[b.ID], want)
			}
		}
	}
}

// TestTaggedPrefetchFollowsPrefetchedBlocks pins the tag bit of tagged
// next-line prefetching: the first demand access to a prefetched block
// prefetches the next line too, so on straight-line code whose fills land
// in time tagged prefetching misses once, like next-line-always, while
// next-line-on-miss misses on every other block.
func TestTaggedPrefetchFollowsPrefetchedBlocks(t *testing.T) {
	p := isa.Build("hw", isa.Code(400))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	par := wcet.Params{HitCycles: 1, MissPenalty: 2, Lambda: 2}
	misses := func(pol hwpref.NextLinePolicy) int64 {
		return run(p, cfg, Options{Runs: 1, Par: par, HW: &hwpref.NextLine{Policy: pol}}).Misses
	}
	always, onMiss, tagged := misses(hwpref.Always), misses(hwpref.OnMiss), misses(hwpref.Tagged)
	if always != 1 || tagged != always {
		t.Fatalf("tagged next-line misses %d times, next-line-always %d; both should miss only the first block", tagged, always)
	}
	if onMiss <= tagged {
		t.Fatalf("next-line-on-miss misses %d times, no more than tagged (%d)", onMiss, tagged)
	}
}
