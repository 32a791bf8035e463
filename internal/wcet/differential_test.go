package wcet_test

import (
	"context"
	"math/rand"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// These tests pin the core claim of the incremental path: AnalyzeXHierFrom
// must be bit-identical — per-level classifications, effectiveness and
// in-states, Tw, Cost, Extra, Nw, τ_w, L1 and L2 misses, fetches — to a
// from-scratch AnalyzeXHier after every mutation, across a chain of
// mutations (each incremental result seeds the next), for single-level
// configurations and for L1+L2 hierarchies alike.

var diffPrograms = []string{"adpcm", "compress", "crc", "fdct", "statemate"}
var diffConfigs = []int{0, 4, 8, 13, 26, 32}

// diffHierarchies are the legs every differential runs on: the Table 2
// configuration alone, and behind an L2 twice its size with 64 B blocks.
// The L2 leg rotates the replacement policy (both levels share it), so the
// non-LRU transfers are covered at both levels too.
func diffHierarchies(k int, cfg cache.Config) []cache.Hierarchy {
	pol := cache.Policies()[k%len(cache.Policies())]
	h := cache.Hierarchy{
		L1: cfg,
		L2: cache.Config{Assoc: 4, BlockBytes: 64, CapacityBytes: 2 * cfg.CapacityBytes, Policy: pol},
	}
	h.L1.Policy = pol
	return []cache.Hierarchy{cache.Hier1(cfg), h}
}

// diffParams returns the timing parameters for hierarchy h.
func diffParams(h cache.Hierarchy) wcet.Params {
	par := wcet.Params{HitCycles: 1, MissPenalty: 10, Lambda: 10}
	if h.HasL2() {
		par.L2HitCycles = 3
	}
	return par
}

func compareResults(t *testing.T, where string, inc, full *wcet.Result) {
	t.Helper()
	if inc.TauW != full.TauW {
		t.Fatalf("%s: τ_w incremental %d != full %d", where, inc.TauW, full.TauW)
	}
	if inc.Misses != full.Misses || inc.L2Misses != full.L2Misses || inc.Fetches != full.Fetches {
		t.Fatalf("%s: misses/L2 misses/fetches incremental %d/%d/%d != full %d/%d/%d",
			where, inc.Misses, inc.L2Misses, inc.Fetches, full.Misses, full.L2Misses, full.Fetches)
	}
	if (inc.AI2 == nil) != (full.AI2 == nil) {
		t.Fatalf("%s: L2 analysis present in only one result", where)
	}
	for id := range full.Nw {
		if inc.Nw[id] != full.Nw[id] {
			t.Fatalf("%s: Nw[%d] incremental %d != full %d", where, id, inc.Nw[id], full.Nw[id])
		}
		if inc.Cost[id] != full.Cost[id] || inc.Extra[id] != full.Extra[id] {
			t.Fatalf("%s: cost/extra[%d] diverge", where, id)
		}
		if len(inc.Tw[id]) != len(full.Tw[id]) {
			t.Fatalf("%s: Tw[%d] length diverges", where, id)
		}
		for i := range full.Tw[id] {
			if inc.Tw[id][i] != full.Tw[id][i] {
				t.Fatalf("%s: Tw[%d][%d] incremental %d != full %d",
					where, id, i, inc.Tw[id][i], full.Tw[id][i])
			}
		}
		compareLevel(t, where+" L1", id, inc.AI, full.AI)
		if full.AI2 != nil {
			compareLevel(t, where+" L2", id, inc.AI2, full.AI2)
		}
	}
}

// compareLevel checks one level's classification, effectiveness and
// in-state of expanded block id.
func compareLevel(t *testing.T, where string, id int, inc, full *absint.Result) {
	t.Helper()
	for i := range full.Class[id] {
		if inc.Class[id][i] != full.Class[id][i] {
			t.Fatalf("%s: class[%d][%d] incremental %v != full %v",
				where, id, i, inc.Class[id][i], full.Class[id][i])
		}
	}
	for i := range full.Effective[id] {
		if inc.Effective[id][i] != full.Effective[id][i] {
			t.Fatalf("%s: effectiveness[%d][%d] diverges", where, id, i)
		}
	}
	if !inc.In[id].Equal(full.In[id]) {
		t.Fatalf("%s: abstract in-state of block %d diverges", where, id)
	}
}

// randomRef picks an existing instruction of p.
func randomRef(rng *rand.Rand, p *isa.Program) isa.InstrRef {
	b := p.Blocks[rng.Intn(len(p.Blocks))]
	return isa.InstrRef{Block: b.ID, Index: rng.Intn(len(b.Instrs))}
}

// insertAt returns a random legal insertion anchor: any instruction that is
// not the block's last (so a terminator is never displaced), in a block
// with at least two instructions.
func insertAt(rng *rand.Rand, p *isa.Program) (isa.InstrRef, bool) {
	for tries := 0; tries < 32; tries++ {
		b := p.Blocks[rng.Intn(len(p.Blocks))]
		if len(b.Instrs) < 2 {
			continue
		}
		return isa.InstrRef{Block: b.ID, Index: rng.Intn(len(b.Instrs) - 1)}, true
	}
	return isa.InstrRef{}, false
}

// mutate applies one random program edit of the kinds the optimizer
// performs (prefetch insertion/removal, at either cache level) plus pad
// insertion, which shifts addresses and exercises wide dirty regions.
func mutate(rng *rand.Rand, p *isa.Program) bool {
	switch rng.Intn(4) {
	case 0: // remove a random prefetch, if any
		var pfts []isa.InstrRef
		for _, b := range p.Blocks {
			for i, in := range b.Instrs {
				if in.Kind == isa.KindPrefetch {
					pfts = append(pfts, isa.InstrRef{Block: b.ID, Index: i})
				}
			}
		}
		if len(pfts) > 0 {
			p.RemoveInstr(pfts[rng.Intn(len(pfts))])
			return true
		}
		fallthrough
	case 1, 2: // insert a prefetch of a random existing reference
		at, ok := insertAt(rng, p)
		if !ok {
			return false
		}
		var lvl uint8
		if rng.Intn(3) == 0 {
			lvl = 2
		}
		p.InsertInstr(at, isa.Instr{Kind: isa.KindPrefetch, Level: lvl, Target: randomRef(rng, p)})
		return true
	default: // insert a pad (pure layout shift)
		at, ok := insertAt(rng, p)
		if !ok {
			return false
		}
		p.InsertInstr(at, isa.Instr{Kind: isa.KindPad})
		return true
	}
}

func TestDifferentialIncrementalVsFull(t *testing.T) {
	t.Parallel()
	configs := cache.Table2()
	steps := 8
	if testing.Short() {
		steps = 3
	}
	for _, name := range diffPrograms {
		bm, ok := malardalen.ByName(name)
		if !ok {
			t.Fatalf("unknown program %s", name)
		}
		for k, ci := range diffConfigs {
			for _, h := range diffHierarchies(k, configs[ci]) {
				par := diffParams(h)
				where := name + "/" + cache.ConfigID(ci) + "/" + h.String()
				p := bm.Prog.Clone()
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				prev, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(ci)*1009 + int64(len(name))))
				for step := 0; step < steps; step++ {
					if !mutate(rng, p) {
						continue
					}
					inc, err := wcet.AnalyzeXHierFrom(context.Background(), x, h, par, prev)
					if err != nil {
						t.Fatal(err)
					}
					full, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, where, inc, full)
					prev = inc // chain: the next round seeds from the incremental result
				}
			}
		}
	}
}

// TestDifferentialDirtyPropagationFuzz hammers one program×config with many
// random mutations per round (so dirty regions overlap and interact) and
// checks the propagated fixpoint still matches a from-scratch analysis
// exactly, with and without an L2.
func TestDifferentialDirtyPropagationFuzz(t *testing.T) {
	t.Parallel()
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for _, name := range []string{"crc", "statemate"} {
		for _, h := range diffHierarchies(0, cache.Table2()[8]) {
			par := diffParams(h)
			bm, _ := malardalen.ByName(name)
			p := bm.Prog.Clone()
			x, err := vivu.Expand(p)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for round := 0; round < rounds; round++ {
				for k := 0; k < 1+rng.Intn(4); k++ {
					mutate(rng, p)
				}
				inc, err := wcet.AnalyzeXHierFrom(context.Background(), x, h, par, prev)
				if err != nil {
					t.Fatal(err)
				}
				full, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, name+"/"+h.String(), inc, full)
				prev = inc
			}
		}
	}
}
