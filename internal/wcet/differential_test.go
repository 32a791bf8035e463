package wcet_test

import (
	"context"
	"fmt"
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
// in-states, RefTime, Cost, Extra, Nw, τ_w, L1 and L2 misses, fetches — to a
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
		for i := range full.AI.Class[id] {
			ref := vivu.Ref{XB: id, Index: i}
			if inc.RefTime(ref) != full.RefTime(ref) {
				t.Fatalf("%s: RefTime(%d, %d) incremental %d != full %d",
					where, id, i, inc.RefTime(ref), full.RefTime(ref))
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
		if inc.Effective(id, i) != full.Effective(id, i) {
			t.Fatalf("%s: effectiveness[%d][%d] diverges", where, id, i)
		}
	}
	if !inc.InState(id).Equal(full.InState(id)) {
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

// TestReleaseDifferential runs seeded random mutation chains in which every
// re-analysis is accepted or rejected at random, like the optimizer's
// validate step: the edits run inside the program's undo record, a rejected
// result is Released and the record undone, and the chain continues from
// its parent. Releasing recycles the rejected result's own abstract states
// into the pool the next re-analysis draws from, so a release that touched
// a state the parent (or anything before it) still holds would corrupt the
// chain; every accepted result must therefore still match a from-scratch
// analysis exactly, under every replacement policy, with and without an
// 8 KiB L2. Accepted results are kept, not retired.
func TestReleaseDifferential(t *testing.T) {
	t.Parallel()
	acceptRejectChains(context.Background(), t, false, nil)
}

// TestRetireDifferential is TestReleaseDifferential with the optimizer's
// accept path: every accepted result retires its predecessor, which hands
// over the exit states the new result still shares and recycles the rest.
// Every accepted result, and the last one at the end of the chain, must
// equal a full analysis, the retired result must read as cleared, and no
// exit state of the live result may sit in either level's pool.
func TestRetireDifferential(t *testing.T) {
	t.Parallel()
	acceptRejectChains(context.Background(), t, true, nil)
}

// TestAssembleDifferential holds the assembly — one pricing function, a
// miss tally per block, totals summed over the blocks on the WCET path — to
// the reference that stores every t_w and recounts the misses instruction
// by instruction (wcet.CheckAssemble). It covers random programs and the
// Mälardalen suite under every replacement policy, on the L1 alone and
// behind an 8 KiB L2, each analyzed from scratch and re-analyzed after
// random edits, and the accept/reject chains of TestRetireDifferential,
// where every re-analysis is checked before it is accepted or rolled back.
func TestAssembleDifferential(t *testing.T) {
	t.Parallel()
	check := func(t *testing.T, where string, r *wcet.Result) {
		t.Helper()
		if err := wcet.CheckAssemble(r); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	rng := rand.New(rand.NewSource(24))
	var progs []*isa.Program
	for i := 0; i < 60; i++ {
		progs = append(progs, wcet.RandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, bm := range malardalen.All() {
		progs = append(progs, bm.Prog)
	}
	checked := 0
	for _, prog := range progs {
		for _, pol := range cache.Policies() {
			for _, h := range chainHierarchies(pol) {
				par := diffParams(h)
				where := prog.Name + "/" + h.String()
				p := prog.Clone()
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
				if err != nil {
					t.Fatal(err)
				}
				check(t, where, res)
				for step := 0; step < 2; step++ {
					if !mutate(rng, p) {
						continue
					}
					if res, err = wcet.AnalyzeXHierFrom(context.Background(), x, h, par, res); err != nil {
						t.Fatal(err)
					}
					check(t, where+" (edited)", res)
				}
				checked++
			}
		}
	}
	t.Logf("%d program × policy × hierarchy legs checked", checked)
	acceptRejectChains(context.Background(), t, true, check)

	// The optimizer's chain on fdct under FIFO at the pinned goldens'
	// geometry reaches an edit that adds fetches and removes misses at
	// unchanged block costs, where a carried-over total would go stale.
	seed, edited := fdctFIFOEqualCostEdit(t, func(seed *wcet.Result) {
		check(t, "fdct/FIFO optimizer chain seed", seed)
	})
	check(t, "fdct/FIFO optimizer chain edit", edited)
	if edited.TauW != seed.TauW || edited.Misses == seed.Misses {
		t.Fatalf("fdct/FIFO chain: τ_w %d → %d, misses %d → %d; the edit no longer keeps τ_w and moves the misses",
			seed.TauW, edited.TauW, seed.Misses, edited.Misses)
	}
}

// fdctFIFOEqualCostEdit replays the fifth validation of the optimizer on
// fdct under FIFO at the pinned goldens' geometry (a 256 B 2-way L1 with 16
// B blocks, MissPenalty 9, Λ 10): nine prefetches inserted into block 2 of
// the unoptimized program, eight of them 61 instructions ahead of their
// targets and one of the entry of block 1. It returns the from-scratch
// seed, which inspect sees before the edit rewrites the program it was
// computed for, and the re-analysis seeded from it. The edit leaves every
// block's cost unchanged and τ_w at 15560, but adds 72 fetches and removes
// 8 misses (1204 → 1196).
func fdctFIFOEqualCostEdit(t *testing.T, inspect func(seed *wcet.Result)) (seed, edited *wcet.Result) {
	t.Helper()
	bm, ok := malardalen.ByName("fdct")
	if !ok {
		t.Fatal("unknown program fdct")
	}
	p := bm.Prog.Clone()
	x, err := vivu.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	h := cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256, Policy: cache.FIFO})
	par := wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}
	if seed, err = wcet.AnalyzeXHier(context.Background(), x, h, par); err != nil {
		t.Fatal(err)
	}
	inspect(seed)
	// Descending program position, like the optimizer's batch: each target
	// is given in the coordinates of the moment it is inserted, and moves
	// with the later insertions in front of it.
	for k := 8; k >= 0; k-- {
		target := isa.InstrRef{Block: 1, Index: 0}
		if k < 8 {
			target = isa.InstrRef{Block: 2, Index: 252 + 4*k + (8 - k)}
		}
		p.InsertInstr(isa.InstrRef{Block: 2, Index: 191 + 4*k}, isa.Instr{Kind: isa.KindPrefetch, Target: target})
	}
	if edited, err = wcet.AnalyzeXHierFrom(context.Background(), x, h, par, seed); err != nil {
		t.Fatal(err)
	}
	return seed, edited
}

// chainHierarchies are the legs of the accept/reject chains under policy
// pol: a conflict-heavy L1 (256 B, 16 B blocks, 2-way) alone and behind an
// 8 KiB 4-way L2 with 32 B blocks.
func chainHierarchies(pol cache.Policy) []cache.Hierarchy {
	l1 := cache.Table2()[1]
	l1.Policy = pol
	return []cache.Hierarchy{
		cache.Hier1(l1),
		{L1: l1, L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: pol}},
	}
}

// acceptRejectChains runs the chains of TestReleaseDifferential and, with
// retire set, of TestRetireDifferential, every re-analysis under ctx. A
// non-nil check also sees every re-analysis of the chain before it is
// accepted or rolled back.
func acceptRejectChains(ctx context.Context, t *testing.T, retire bool, check func(t *testing.T, where string, r *wcet.Result)) {
	steps := 12
	if testing.Short() {
		steps = 5
	}
	for _, name := range []string{"crc", "fdct", "compress", "statemate"} {
		bm, ok := malardalen.ByName(name)
		if !ok {
			t.Fatalf("unknown program %s", name)
		}
		for pi, pol := range cache.Policies() {
			for _, h := range chainHierarchies(pol) {
				par := diffParams(h)
				where := name + "/" + h.String()
				p := bm.Prog.Clone()
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				prev, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
				if err != nil {
					t.Fatal(err)
				}
				prev.AI.Intern() // the optimizer's seed is interned
				if prev.AI2 != nil {
					prev.AI2.Intern()
				}
				rng := rand.New(rand.NewSource(int64(pi)*7919 + int64(len(name))))
				accepted, rejected := 0, 0
				for step := 0; step < steps; step++ {
					p.BeginUndo()
					for k := 0; k < 1+rng.Intn(3); k++ {
						mutate(rng, p)
					}
					cur, err := wcet.AnalyzeXHierFrom(ctx, x, h, par, prev)
					if err != nil {
						t.Fatal(err)
					}
					if check != nil {
						check(t, where, cur)
					}
					if rng.Intn(2) == 0 {
						p.Undo()
						cur.Release()
						rejected++
					} else {
						p.DropUndo()
						full, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, where, cur, full)
						if retire {
							old := prev
							prev.Retire(cur)
							if old.AI.Class != nil || (old.AI2 != nil && old.AI2.Class != nil) {
								t.Fatalf("%s: a retired result still exposes its classifications", where)
							}
						}
						prev = cur
						accepted++
					}
					if n := prev.AI.PooledStates(); n != 0 {
						t.Fatalf("%s: %d L1 exit states of the live result sit in the pool", where, n)
					}
					if prev.AI2 != nil {
						if n := prev.AI2.PooledStates(); n != 0 {
							t.Fatalf("%s: %d L2 exit states of the live result sit in the pool", where, n)
						}
					}
				}
				if accepted == 0 || rejected == 0 {
					t.Fatalf("%s: %d accepted and %d rejected refreshes; the chain needs both", where, accepted, rejected)
				}
				// The last accepted result must also have survived the
				// releases and retirements that followed it.
				full, err := wcet.AnalyzeXHier(context.Background(), x, h, par)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, where+" (end of chain)", prev, full)
			}
		}
	}
}
