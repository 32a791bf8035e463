package absint

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
)

// sameMustPers reports how lean, an exit state of a chain without the may
// component, differs from full, the same block's exit state with it: the
// must spans, the young persistence spans and the saturated bitset must be
// identical, and lean's may component empty.
func sameMustPers(lean, full *State) error {
	if (lean == nil) != (full == nil) {
		return fmt.Errorf("state present in only one analysis")
	}
	if lean == nil {
		return nil
	}
	if lean.nMay != 0 {
		return fmt.Errorf("%d may entries without a may component", lean.nMay)
	}
	if lean.nMust != full.nMust || lean.nPers != full.nPers || lean.nSat != full.nSat || !satEqual(lean.sat, full.sat) {
		return fmt.Errorf("must/persistence counts or saturated bits differ")
	}
	for k := 0; k < len(full.spans); k += nComp {
		if !lean.view(k+cMust).equal(full.view(k+cMust)) || !lean.view(k+cPers).equal(full.view(k+cPers)) {
			return fmt.Errorf("set %d: must or persistence entries differ", k/nComp)
		}
	}
	return nil
}

// diffLean compares a level's analysis without AlwaysMiss demand with the
// one that has it: every verdict agrees except AlwaysMiss, which reads
// NotClassified when the chain dropped the may component, every
// effectiveness bit agrees, and every exit state agrees on must and
// persistence (exactly, when the policy keeps may). It returns the number
// of AlwaysMiss verdicts read as NotClassified.
func diffLean(lean, full *Result) (int, error) {
	dropped := 0
	for id := range full.Class {
		for i, want := range full.Class[id] {
			got := lean.Class[id][i]
			if lean.Effective(id, i) != full.Effective(id, i) {
				return 0, fmt.Errorf("block %d ref %d: effectiveness differs", id, i)
			}
			switch {
			case got == want:
			case !lean.HasAlwaysMiss() && want == AlwaysMiss && got == NotClassified:
				dropped++
			default:
				return 0, fmt.Errorf("block %d ref %d: verdict %v, with the may component %v", id, i, got, want)
			}
		}
		if lean.HasAlwaysMiss() {
			if (lean.out[id] == nil) != (full.out[id] == nil) || lean.out[id] != nil && !lean.out[id].Equal(full.out[id]) {
				return 0, fmt.Errorf("block %d: exit state differs although the chain keeps may", id)
			}
		} else if err := sameMustPers(lean.out[id], full.out[id]); err != nil {
			return 0, fmt.Errorf("block %d: %v", id, err)
		}
	}
	return dropped, nil
}

// insertRandomPrefetch inserts a prefetch of a random instruction behind a
// random non-terminating instruction of p, filling the L1 or, one time in
// three, the L2.
func insertRandomPrefetch(rng *rand.Rand, p *isa.Program) {
	for {
		b := p.Blocks[rng.Intn(len(p.Blocks))]
		if len(b.Instrs) < 2 {
			continue
		}
		tb := p.Blocks[rng.Intn(len(p.Blocks))]
		var lvl uint8
		if rng.Intn(3) == 0 {
			lvl = 2
		}
		p.InsertInstr(isa.InstrRef{Block: b.ID, Index: rng.Intn(len(b.Instrs) - 1)},
			isa.Instr{Kind: isa.KindPrefetch, Level: lvl, Target: isa.InstrRef{Block: tb.ID, Index: rng.Intn(len(tb.Instrs))}})
		return
	}
}

// TestMayDemandStatesDifferential holds the analysis without AlwaysMiss
// demand (AnalyzeChain with am unset) to the one with it, at the L1 and at
// an L2 gated by the L1 with every verdict, under every policy, over random
// programs and the Mälardalen suite: the seed analyses and two
// edits of a chain seeded from each. Must and persistence never read may,
// so the exit states agree on both components and every verdict agrees but
// AlwaysMiss, which reads NotClassified; FIFO keeps may and agrees exactly.
func TestMayDemandStatesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var progs []*isa.Program
	for i := 0; i < 24; i++ {
		progs = append(progs, diffRandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, b := range malardalen.All() {
		progs = append(progs, b.Prog)
	}
	ctx := context.Background()
	dropped := 0
	for _, pol := range cachetest.Policies(t) {
		h := cache.Hierarchy{
			L1: cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256, Policy: pol},
			L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 2048, Policy: pol},
		}
		for _, prog := range progs {
			p := prog.Clone()
			x, lay := mustExpand(t, p)
			var leanL1, leanL2 *Result
			for step := 0; step < 3; step++ {
				where := fmt.Sprintf("%s/%v step %d", prog.Name, pol, step)
				if step > 0 {
					insertRandomPrefetch(rng, p)
					lay = isa.NewLayout(p)
				}
				full, err := Analyze(ctx, x, lay, h.L1, 10)
				if err != nil {
					t.Fatal(err)
				}
				full2, err := AnalyzeL2(ctx, x, lay, h, 10, full)
				if err != nil {
					t.Fatal(err)
				}
				if step == 0 {
					leanL1, err = AnalyzeChain(ctx, x, lay, h.L1, 10, nil, false)
					if err == nil {
						leanL2, err = AnalyzeChain(ctx, x, lay, h.L2, 10, full, false)
					}
				} else {
					// The re-analyses inherit the chains' missing demand.
					if leanL1, err = AnalyzeFrom(ctx, x, lay, h.L1, 10, leanL1); err == nil {
						leanL2, err = AnalyzeL2From(ctx, x, lay, h, 10, full, leanL2)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if leanL1.HasAlwaysMiss() != keepsMay(h.L1) || leanL2.HasAlwaysMiss() != keepsMay(h.L2) {
					t.Fatalf("%s: HasAlwaysMiss %v/%v under %v", where, leanL1.HasAlwaysMiss(), leanL2.HasAlwaysMiss(), pol)
				}
				for _, lv := range []struct {
					name       string
					lean, full *Result
				}{{"L1", leanL1, full}, {"L2", leanL2, full2}} {
					n, err := diffLean(lv.lean, lv.full)
					if err != nil {
						t.Fatalf("%s %s: %v", where, lv.name, err)
					}
					dropped += n
				}
			}
		}
	}
	if dropped == 0 {
		for _, pol := range cachetest.Policies(t) {
			if pol != cache.FIFO {
				t.Fatal("no AlwaysMiss verdict was dropped; the differential is vacuous")
			}
		}
	}
	t.Logf("%d AlwaysMiss verdicts read as NotClassified", dropped)
}

// TestMayDemandGuards pins the rules that keep a chain without the may
// component from leaking into a reader of AlwaysMiss: the L2 gate refuses
// such an L1 result on every entry point, FIFO keeps may whatever the
// demand, and a cloned state keeps its chain's transfer.
func TestMayDemandGuards(t *testing.T) {
	ctx := context.Background()
	p := isa.Build("guard", isa.Code(8), isa.Loop(6, 5, isa.Code(40)), isa.Code(30))
	x, lay := mustExpand(t, p)
	h := cache.Hierarchy{
		L1: cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 128},
		L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 1024},
	}
	lean, err := AnalyzeChain(ctx, x, lay, h.L1, 10, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if lean.HasAlwaysMiss() {
		t.Fatal("an LRU chain without demand kept its AlwaysMiss verdicts")
	}
	full := testAnalyze(t, x, lay, h.L1, 10)
	prev, err := AnalyzeL2(ctx, x, lay, h, 10, full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeL2(ctx, x, lay, h, 10, lean); err == nil {
		t.Error("AnalyzeL2 accepted an L1 result without AlwaysMiss verdicts")
	}
	if _, err := AnalyzeL2From(ctx, x, lay, h, 10, lean, prev); err == nil {
		t.Error("AnalyzeL2From accepted an L1 result without AlwaysMiss verdicts")
	}
	if _, err := AnalyzeChain(ctx, x, lay, h.L2, 10, lean, false); err == nil {
		t.Error("AnalyzeChain accepted an L1 result without AlwaysMiss verdicts for the L2")
	}

	fifo := h.L1
	fifo.Policy = cache.FIFO
	if r, err := AnalyzeChain(ctx, x, lay, fifo, 10, nil, false); err != nil || !r.HasAlwaysMiss() {
		t.Fatalf("a FIFO chain must keep may whatever the demand (err %v)", err)
	}

	for _, pol := range []cache.Policy{cache.LRU, cache.PLRU} {
		cfg := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 128, Policy: pol}
		st := newState(cfg, 0, true)
		for _, b := range []uint64{1, 3, 5, 9, 1, 13} {
			st.Access(b)
		}
		st.PrefetchFill(17, false)
		c := st.Clone()
		if c.tr != st.tr || !c.noAM {
			t.Fatalf("%v: Clone rebuilt the transfer: %#v, want %#v", pol, c.tr, st.tr)
		}
		c.Access(21)
		st.Access(21)
		if !c.Equal(st) || c.nMay != 0 {
			t.Fatalf("%v: the clone's transfer grew a may component", pol)
		}
		if cl := c.Classify(25); cl != NotClassified {
			t.Fatalf("%v: a state without may classified a never-seen block %v", pol, cl)
		}
	}
}
