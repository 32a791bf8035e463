package absint

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ucp/internal/cache"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

func mustExpand(t *testing.T, p *isa.Program) (*vivu.Prog, *isa.Layout) {
	t.Helper()
	x, err := vivu.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	return x, isa.NewLayout(p)
}

func testAnalyze(t *testing.T, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int) *Result {
	t.Helper()
	res, err := Analyze(context.Background(), x, lay, cfg, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMustUpdateAges(t *testing.T) {
	var s setState
	s = mustUpdate(s, 10, 2)
	s = mustUpdate(s, 20, 2)
	// 20 is MRU (age 0), 10 aged to 1.
	if i := s.find(20); i < 0 || s[i].age() != 0 {
		t.Fatalf("state = %v", s)
	}
	if i := s.find(10); i < 0 || s[i].age() != 1 {
		t.Fatalf("state = %v", s)
	}
	// Re-access 10: both present, ages swap.
	s = mustUpdate(s, 10, 2)
	if i := s.find(20); i < 0 || s[i].age() != 1 {
		t.Fatalf("state = %v", s)
	}
	// A third block evicts the oldest from the must state.
	s = mustUpdate(s, 30, 2)
	if s.find(20) >= 0 {
		t.Fatalf("20 should have aged out: %v", s)
	}
}

func TestMustUpdateDoesNotAgeOlderBlocks(t *testing.T) {
	// Access to a block younger than b must not age b.
	var s setState
	s = mustUpdate(s, 1, 4) // ages: 1:0
	s = mustUpdate(s, 2, 4) // 2:0 1:1
	s = mustUpdate(s, 3, 4) // 3:0 2:1 1:2
	s = mustUpdate(s, 2, 4) // re-access 2 (age 1): only younger (3) ages
	if i := s.find(1); s[i].age() != 2 {
		t.Fatalf("block 1 aged on re-access of a younger block: %v", s)
	}
	if i := s.find(3); s[i].age() != 1 {
		t.Fatalf("block 3 should age to 1: %v", s)
	}
}

// joinMust and joinMay are the allocating forms of the join functions.
func joinMust(a, b setState) setState { return joinMustInto(nil, a, b) }
func joinMay(a, b setState) setState  { return joinMayInto(nil, a, b) }

func TestJoinMustIntersectsMaxAge(t *testing.T) {
	a := setState{}.insert(1, 0).insert(2, 1)
	b := setState{}.insert(2, 0).insert(3, 1)
	j := joinMust(a, b)
	if j.find(1) >= 0 || j.find(3) >= 0 {
		t.Fatalf("join kept non-common blocks: %v", j)
	}
	if i := j.find(2); i < 0 || j[i].age() != 1 {
		t.Fatalf("join age = %v", j)
	}
}

func TestJoinMayUnionMinAge(t *testing.T) {
	a := setState{}.insert(1, 0).insert(2, 1)
	b := setState{}.insert(2, 0).insert(3, 1)
	j := joinMay(a, b)
	if j.find(1) < 0 || j.find(3) < 0 {
		t.Fatalf("may join must keep the union: %v", j)
	}
	if i := j.find(2); j[i].age() != 0 {
		t.Fatalf("may join age = %v", j)
	}
}

func TestClassifyColdStart(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64}
	st := NewState(cfg)
	if got := st.Classify(5); got != AlwaysMiss {
		t.Fatalf("cold access = %v, want AM", got)
	}
	st.Access(5)
	if got := st.Classify(5); got != AlwaysHit {
		t.Fatalf("after access = %v, want AH", got)
	}
}

func TestAnalyzeCanceled(t *testing.T) {
	p := isa.Build("loop", isa.Loop(10, 8, isa.Code(4)))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Analyze(ctx, x, lay, cfg, 10)
	if res != nil || err == nil {
		t.Fatalf("Analyze on canceled ctx = (%v, %v), want (nil, error)", res, err)
	}
	if !errors.Is(err, interrupt.ErrCanceled) {
		t.Fatalf("err = %v, want interrupt.ErrCanceled", err)
	}
}

func TestAnalyzeFromAbortLeavesPrevUsable(t *testing.T) {
	// An aborted incremental re-analysis must not corrupt the seed result:
	// a later retry from the same prev must still yield the full answer.
	p := isa.Build("loop", isa.Loop(10, 8, isa.Code(4)))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	prev := testAnalyze(t, x, lay, cfg, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := AnalyzeChain(ctx, x, lay, cfg, 10, nil, prev, true); res != nil || err == nil {
		t.Fatalf("aborted AnalyzeChain = (%v, %v), want (nil, error)", res, err)
	}
	retry, err := AnalyzeChain(context.Background(), x, lay, cfg, 10, nil, prev, true)
	if err != nil {
		t.Fatal(err)
	}
	want := testAnalyze(t, x, lay, cfg, 10)
	for id := range want.Class {
		for i := range want.Class[id] {
			if retry.Class[id][i] != want.Class[id][i] {
				t.Fatalf("block %d ref %d: retry %v, want %v", id, i, retry.Class[id][i], want.Class[id][i])
			}
		}
	}
}

func TestLoopFirstMissRestHit(t *testing.T) {
	// A loop whose body fits comfortably in cache: the R-context refs must
	// classify always-hit, the F-context refs always-miss (cold start).
	p := isa.Build("loop", isa.Loop(10, 8, isa.Code(4)))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	res := testAnalyze(t, x, lay, cfg, 10)
	for _, xb := range x.Blocks {
		for i, cl := range res.Class[xb.ID] {
			switch {
			case len(xb.Ctx) > 0 && xb.Ctx[len(xb.Ctx)-1] == 'R':
				if cl != AlwaysHit {
					t.Errorf("R-context ref %v/%d classified %v, want AH", xb.Ctx, i, cl)
				}
			}
		}
	}
	// At least one cold F-context miss must exist.
	foundMiss := false
	for _, xb := range x.Blocks {
		for _, cl := range res.Class[xb.ID] {
			if cl == AlwaysMiss {
				foundMiss = true
			}
		}
	}
	if !foundMiss {
		t.Error("no cold miss classified in a cold cache")
	}
}

func TestConflictingLoopNotAllHits(t *testing.T) {
	// A loop body much larger than the cache cannot be all always-hit in
	// its R context.
	p := isa.Build("big", isa.Loop(10, 8, isa.Code(600)))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 256}
	res := testAnalyze(t, x, lay, cfg, 10)
	misses := 0
	for _, xb := range x.Blocks {
		if len(xb.Ctx) == 0 || xb.Ctx[len(xb.Ctx)-1] != 'R' {
			continue
		}
		for _, cl := range res.Class[xb.ID] {
			if cl != AlwaysHit {
				misses++
			}
		}
	}
	if misses == 0 {
		t.Fatal("thrashing loop classified fully always-hit")
	}
}

// concreteRun executes the program with a random driver respecting the loop
// bounds and returns, for every (expanded-block-matching) reference
// executed, whether it hit, so the must analysis can be checked for
// soundness.
type concreteEvent struct {
	block, index int
	iteration    int // 0 = first visit of this loop entry
	hit          bool
}

func concreteRun(p *isa.Program, cfg cache.Config, rng *rand.Rand) []concreteEvent {
	lay := isa.NewLayout(p)
	st := cache.NewState(cfg)
	var events []concreteEvent
	loopIters := map[int]int{} // remaining iterations per loop index
	// headVisits[li] counts header executions since loop li was entered.
	// The VIVU F context covers the first iteration: the header's first
	// check and any body block running before the second check.
	headVisits := map[int]int{}
	cur := p.Entry
	prev := -1
	steps := 0
	for {
		steps++
		if steps > 200000 {
			panic("concrete run did not terminate")
		}
		b := p.Blocks[cur]
		li := p.LoopOf(cur)
		isHead := li >= 0 && p.Loops[li].Head == cur
		if isHead {
			fresh := true
			if prev >= 0 {
				for _, m := range p.Loops[li].Blocks {
					if m == prev {
						fresh = false
					}
				}
			}
			if fresh {
				loopIters[li] = rng.Intn(p.Loops[li].Bound + 1)
				headVisits[li] = 0
			}
		}
		it := 0
		if li >= 0 {
			if isHead {
				it = headVisits[li]
				headVisits[li]++
			} else {
				it = headVisits[li] - 1
			}
		}
		for i := range b.Instrs {
			blk := lay.MemBlock(isa.InstrRef{Block: cur, Index: i}, cfg.BlockBytes)
			hit, _ := st.Access(blk)
			events = append(events, concreteEvent{cur, i, it, hit})
		}
		if len(b.Succs) == 0 {
			return events
		}
		prev = cur
		if isHead {
			if loopIters[li] > 0 {
				loopIters[li]--
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
			continue
		}
		if b.Terminator().Kind == isa.KindBranch {
			if rng.Intn(2) == 0 {
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
			continue
		}
		cur = b.Succs[0]
	}
}

// Soundness property: no reference classified AlwaysHit may miss in any
// concrete execution, and no reference classified AlwaysMiss may hit —
// where the classification for a concrete visit is looked up in the VIVU
// context matching the visit (first vs. later iteration of the innermost
// loop).
func TestClassificationSoundness(t *testing.T) {
	programs := []*isa.Program{
		isa.Build("p1", isa.Loop(6, 4, isa.Code(10)), isa.Code(5)),
		isa.Build("p2", isa.If(0.5, isa.S(isa.Code(8)), isa.S(isa.Code(12))), isa.Loop(5, 3, isa.Code(6))),
		isa.Build("p3", isa.Loop(4, 3, isa.Code(3), isa.Loop(3, 2, isa.Code(5)), isa.Code(2))),
		isa.Build("p4", isa.Loop(8, 6, isa.IfThen(0.3, isa.Code(20)), isa.Code(4))),
	}
	cfgs := []cache.Config{
		{Assoc: 1, BlockBytes: 16, CapacityBytes: 128},
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 4, BlockBytes: 32, CapacityBytes: 512},
	}
	for _, p := range programs {
		for _, cfg := range cfgs {
			x, err := vivu.Expand(p)
			if err != nil {
				t.Fatal(err)
			}
			lay := isa.NewLayout(p)
			res := testAnalyze(t, x, lay, cfg, 10)

			// classOf(block, index, firstIter) — join classifications over
			// all matching contexts (conservative check: if ANY context
			// classifies AH and the concrete visit under that context
			// missed, it is unsound; we map first-iteration visits to
			// all-F contexts of the innermost loop and later visits to
			// ...R contexts).
			classOf := func(block, index int, iter int) Classification {
				agg := Classification(255)
				for _, xb := range x.Blocks {
					if xb.Orig != block {
						continue
					}
					if len(xb.Ctx) > 0 {
						last := xb.Ctx[len(xb.Ctx)-1]
						if iter == 0 && last != 'F' {
							continue
						}
						if iter > 0 && last != 'R' {
							continue
						}
					}
					cl := res.Class[xb.ID][index]
					if agg == 255 {
						agg = cl
					} else if agg != cl {
						return NotClassified // contexts disagree: weakest
					}
				}
				if agg == 255 {
					return NotClassified
				}
				return agg
			}

			rng := rand.New(rand.NewSource(42))
			for run := 0; run < 10; run++ {
				for _, ev := range concreteRun(p, cfg, rng) {
					cl := classOf(ev.block, ev.index, ev.iteration)
					if cl == AlwaysHit && !ev.hit {
						t.Fatalf("%s/%v: AH ref (%d,%d) missed concretely (iter %d)",
							p.Name, cfg, ev.block, ev.index, ev.iteration)
					}
					if cl == AlwaysMiss && ev.hit {
						t.Fatalf("%s/%v: AM ref (%d,%d) hit concretely (iter %d)",
							p.Name, cfg, ev.block, ev.index, ev.iteration)
					}
				}
			}
		}
	}
}

func TestStateCloneEqual(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64}
	a := NewState(cfg)
	a.Access(1)
	a.Access(2)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Access(3)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
}

func TestPrefetchFillMustOnlyWhenEffective(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64}
	st := NewState(cfg)
	st.PrefetchFill(7, true)
	if !st.MustContains(7) {
		t.Fatal("effective fill must enter the must state")
	}
	st2 := NewState(cfg)
	st2.PrefetchFill(7, false)
	if st2.MustContains(7) {
		t.Fatal("non-effective fill must not enter the must state")
	}
	if !st2.MayContains(7) {
		t.Fatal("non-effective fill must enter the may state")
	}
}

func TestNonEffectiveFillAgesMust(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 32} // 1 set
	st := NewState(cfg)
	st.Access(1)
	st.Access(2) // must: 2@0, 1@1
	st.PrefetchFill(9, false)
	if st.MustContains(1) {
		t.Fatal("a fill at unknown time may displace the oldest guaranteed block")
	}
	if !st.MayContains(1) {
		t.Fatal("may must keep the possibly-resident block")
	}
}

// Property: must ⊆ may at every point of any access sequence.
func TestMustSubsetOfMay(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64}
	f := func(accs []uint8) bool {
		st := NewState(cfg)
		for _, a := range accs {
			st.Access(uint64(a % 16))
			for b := uint64(0); b < 16; b++ {
				if st.MustContains(b) && !st.MayContains(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEffectivenessDistance(t *testing.T) {
	// Prefetch at the start of a long straight block, target far away:
	// effective for small lambda, not for huge lambda.
	p := isa.Build("eff", isa.Code(40))
	// Insert a prefetch at index 1 targeting the instruction at index 30.
	p.InsertInstr(isa.InstrRef{Block: 0, Index: 0}, isa.Instr{Kind: isa.KindPrefetch, Target: isa.InstrRef{Block: 0, Index: 30}})
	x, err := vivu.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	lay := isa.NewLayout(p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 128}

	resShort := testAnalyze(t, x, lay, cfg, 4)
	if !resShort.Effective(x.Topo[0], 1) {
		t.Fatal("prefetch 29+ instructions ahead should hide a 4-cycle latency")
	}
	resLong := testAnalyze(t, x, lay, cfg, 1000)
	if resLong.Effective(x.Topo[0], 1) {
		t.Fatal("a 1000-cycle latency cannot hide in 29 instructions")
	}
}

func TestPersistenceFirstMissClassification(t *testing.T) {
	// A loop over a switch: each arm's block is loaded in whatever
	// iteration first takes it, and never evicted (everything fits).
	// The arm references cannot be always-hit (the must join loses them)
	// but must be recognized as first-miss in the R context.
	p := isa.Build("switchloop",
		isa.Loop(10, 10,
			isa.Switch([]float64{1, 1, 1},
				isa.S(isa.Code(4)), isa.S(isa.Code(4)), isa.S(isa.Code(4))),
			isa.Code(2),
		),
	)
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 1024}
	res := testAnalyze(t, x, lay, cfg, 10)
	fm := 0
	for _, xb := range x.Blocks {
		if len(xb.Ctx) == 0 || xb.Ctx[len(xb.Ctx)-1] != 'R' {
			continue
		}
		for _, cl := range res.Class[xb.ID] {
			if cl == FirstMiss {
				fm++
			}
		}
	}
	if fm == 0 {
		t.Fatal("persistence analysis found no first-miss references in a fitting switch loop")
	}
}

func TestPersistentAfterEvictionIsFalse(t *testing.T) {
	cfg := cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 32} // 2 sets
	st := NewState(cfg)
	st.Access(0)
	if !st.Persistent(0) {
		t.Fatal("freshly loaded block must be persistent")
	}
	st.Access(2) // same set (2 mod 2 == 0): evicts block 0
	if st.Persistent(0) {
		t.Fatal("a possibly-evicted block must not be persistent")
	}
	// A never-seen block: its access would be the one first load.
	if !st.Persistent(1) {
		t.Fatal("an untouched block's single load is its first miss")
	}
}

// The saturated persistence bits are numbered from the chain's first memory
// block, so re-analyzing a program whose text moved to another base must not
// reuse the previous chain: the call runs in full and matches a fresh
// analysis.
func TestAnalyzeFromRebasedLayoutRunsFull(t *testing.T) {
	p := isa.Build("rebase",
		isa.Code(6),
		isa.Loop(10, 8, isa.Code(40), isa.If(0.5, isa.S(isa.Code(20)), isa.S(isa.Code(30)))),
		isa.Code(12))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	const lambda = 10
	prev := testAnalyze(t, x, lay, cfg, lambda)
	saturated := false
	for _, s := range prev.out {
		saturated = saturated || s != nil && s.nSat > 0
	}
	if !saturated {
		t.Fatal("no exit state has a saturated bound; the test needs some")
	}

	x.Prog.Base = isa.DefaultBaseAddr / 2
	moved := isa.NewLayout(x.Prog)
	if moved.StartAddr()/uint64(cfg.BlockBytes) == lay.StartAddr()/uint64(cfg.BlockBytes) {
		t.Fatal("the start block did not move")
	}
	got, err := AnalyzeChain(context.Background(), x, moved, cfg, lambda, nil, prev, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Changed != nil {
		t.Fatal("a re-analysis of a rebased layout ran incrementally")
	}
	want := testAnalyze(t, x, moved, cfg, lambda)
	for id := range want.Class {
		for i := range want.Class[id] {
			if got.Class[id][i] != want.Class[id][i] || got.Effective(id, i) != want.Effective(id, i) {
				t.Fatalf("block %d ref %d: %v/%v, want %v/%v", id, i,
					got.Class[id][i], got.Effective(id, i), want.Class[id][i], want.Effective(id, i))
			}
		}
		if !got.InState(id).Equal(want.InState(id)) {
			t.Fatalf("in-state of block %d diverges from a fresh analysis", id)
		}
	}
}

// TestChainSeedCompatibilityDifferential pins AnalyzeChain's rule for
// seeding from prev. A seed of another level, λ, configuration or AlwaysMiss
// demand must run a full analysis (Changed == nil) equal to a fresh one;
// a compatible seed re-analyzes incrementally (Changed != nil) to the same
// result. Both levels use one configuration, so only the level tells an L1
// seed from an L2 one.
func TestChainSeedCompatibilityDifferential(t *testing.T) {
	p := isa.Build("compat",
		isa.Code(6),
		isa.Loop(10, 8, isa.Code(40), isa.If(0.5, isa.S(isa.Code(20)), isa.S(isa.Code(30)))),
		isa.Code(12))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	other := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 256}
	const lambda = 10
	ctx := context.Background()
	chain := func(lay *isa.Layout, cfg cache.Config, lambda int, l1, prev *Result, am bool) *Result {
		t.Helper()
		r, err := AnalyzeChain(ctx, x, lay, cfg, lambda, l1, prev, am)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	s1 := chain(lay, cfg, lambda, nil, nil, true)
	s2 := chain(lay, cfg, lambda, s1, nil, true)

	insertRandomPrefetch(rand.New(rand.NewSource(3)), p)
	lay = isa.NewLayout(p)
	l1 := chain(lay, cfg, lambda, nil, nil, true)
	for _, tc := range []struct {
		name   string
		cfg    cache.Config
		lambda int
		l1     *Result
		prev   *Result
		am     bool
		seeded bool
	}{
		{"L1 seed at the L2", cfg, lambda, l1, s1, true, false},
		{"L2 seed at the L1", cfg, lambda, nil, s2, true, false},
		{"another λ", cfg, lambda + 5, nil, s1, true, false},
		{"another config", other, lambda, nil, s1, true, false},
		{"another demand", cfg, lambda, nil, s1, false, false},
		{"compatible L1", cfg, lambda, nil, s1, true, true},
		{"compatible L2", cfg, lambda, l1, s2, true, true},
	} {
		got := chain(lay, tc.cfg, tc.lambda, tc.l1, tc.prev, tc.am)
		if seeded := got.Changed != nil; seeded != tc.seeded {
			t.Fatalf("%s: seeded %v, want %v", tc.name, seeded, tc.seeded)
		}
		want := chain(lay, tc.cfg, tc.lambda, tc.l1, nil, tc.am)
		if got.HasAlwaysMiss() != want.HasAlwaysMiss() {
			t.Fatalf("%s: HasAlwaysMiss %v, want %v", tc.name, got.HasAlwaysMiss(), want.HasAlwaysMiss())
		}
		for id := range want.Class {
			for i := range want.Class[id] {
				if got.Class[id][i] != want.Class[id][i] || got.Effective(id, i) != want.Effective(id, i) {
					t.Fatalf("%s: block %d ref %d: %v/%v, want %v/%v", tc.name, id, i,
						got.Class[id][i], got.Effective(id, i), want.Class[id][i], want.Effective(id, i))
				}
			}
			if g, w := got.out[id], want.out[id]; (g == nil) != (w == nil) || g != nil && !g.Equal(w) {
				t.Fatalf("%s: exit state of block %d diverges from a fresh analysis", tc.name, id)
			}
		}
	}
}
