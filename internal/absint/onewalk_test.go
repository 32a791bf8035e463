package absint

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/vivu"
)

// refAccessMaybe is the whole-state Uncertain update the set-local one
// replaced: copy the state, apply the access to the copy, and join the two.
func refAccessMaybe(st *State, blk uint64) *State {
	acc := st.Clone()
	acc.Access(blk)
	jn := newState(st.cfg, st.satLo, false)
	jn.joinInto(st, acc, nil)
	return jn
}

// refApply is apply over refAccessMaybe.
func refApply(st *State, op opRec) {
	switch op.cac {
	case cacAlways:
		st.Access(op.acc)
	case cacUncertain:
		st.copyFrom(refAccessMaybe(st, op.acc))
	}
	if op.pft {
		st.PrefetchFill(op.tgt, op.eff)
	}
}

// TestUncertainAccessSetLocal drives seeded random sequences of accesses,
// prefetch fills (effective or not), joins and Uncertain accesses through a
// small population of states, under every policy and several geometries,
// with blocks spread over several saturated-bitset words. Every Uncertain
// access through maybeBuf.accessMaybe must leave exactly the state the
// whole-state copy + Access + join produces: Equal, the same interned hash,
// and the same cached counts (nSat also against the bits actually set).
func TestUncertainAccessSetLocal(t *testing.T) {
	const (
		seqs  = 8
		steps = 300
		pop   = 4
		satLo = 1000
		wide  = 3*64 + 8 // the block range spans four bitset words
	)
	checked := 0
	for _, pol := range cache.Policies() {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, nsets := range []int{1, 4} {
				cfg := cache.Config{Assoc: assoc, BlockBytes: 16, CapacityBytes: 16 * assoc * nsets, Policy: pol}
				if err := cfg.Valid(); err != nil {
					t.Fatal(err)
				}
				for seq := 0; seq < seqs; seq++ {
					rng := rand.New(rand.NewSource(int64(seq)))
					// Most blocks come from a window a little larger than
					// the cache, so blocks are reloaded while saturated;
					// the rest from the whole wide range.
					tight := uint64(2*assoc*nsets + 1)
					lo := satLo + uint64(rng.Int63n(wide-int64(tight)))
					pick := func() uint64 {
						if rng.Intn(4) == 0 {
							return satLo + uint64(rng.Int63n(wide))
						}
						return lo + uint64(rng.Int63n(int64(tight)))
					}
					sts := make([]*State, pop)
					for k := range sts {
						sts[k] = newState(cfg, satLo, false)
					}
					spare := newState(cfg, satLo, false)
					var mb maybeBuf
					for step := 0; step < steps; step++ {
						k := rng.Intn(pop)
						blk := pick()
						switch r := rng.Intn(20); {
						case r < 8:
							sts[k].Access(blk)
						case r < 11:
							sts[k].PrefetchFill(blk, r < 10)
						case r < 13:
							a, b := rng.Intn(pop), rng.Intn(pop)
							spare.joinInto(sts[a], sts[b], nil)
							spare, sts[k] = sts[k], spare
						default:
							want := refAccessMaybe(sts[k], blk)
							mb.accessMaybe(sts[k], blk)
							where := fmt.Sprintf("%v seq %d step %d: Uncertain access of %d", cfg, seq, step, blk)
							if err := sameState(sts[k], want); err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d Uncertain accesses checked", checked)
}

// sameState reports how got differs from want: Equal, the cached counts,
// nSat against the bits actually set, and the interned hash.
func sameState(got, want *State) error {
	if !got.Equal(want) {
		return fmt.Errorf("state differs from the whole-state join")
	}
	if got.nMust != want.nMust || got.nMay != want.nMay || got.nPers != want.nPers || got.nSat != want.nSat {
		return fmt.Errorf("counts must/may/pers/sat %d/%d/%d/%d, want %d/%d/%d/%d",
			got.nMust, got.nMay, got.nPers, got.nSat, want.nMust, want.nMay, want.nPers, want.nSat)
	}
	n := 0
	for _, w := range got.sat {
		n += bits.OnesCount64(w)
	}
	if int(got.nSat) != n {
		return fmt.Errorf("nSat %d, %d bits set", got.nSat, n)
	}
	if x, y := internedHash(got), internedHash(want); x != y {
		return fmt.Errorf("interned hash %x, want %x", x, y)
	}
	return nil
}

// refClassify is the post-solve classification walk the fixpoint's
// recorded rows replaced: it pushes the block's derived in-state through its
// transfer row and classifies every fetch on the way.
func refClassify(r *Result, id int) []Classification {
	walk := r.InState(id)
	ctx := r.X.Blocks[id].Ctx
	inRest := len(ctx) > 0 && ctx[len(ctx)-1] == 'R'
	var cls []Classification
	for _, op := range r.ops[id] {
		cl := walk.Classify(op.acc)
		if cl == NotClassified && inRest && walk.Persistent(op.acc) {
			cl = FirstMiss
		}
		cls = append(cls, cl)
		refApply(walk, op)
	}
	return cls
}

// diffRandomProgram builds a random structured program with nested loops
// and branches, the shape of the generator the wcet differentials use.
func diffRandomProgram(rng *rand.Rand, name string) *isa.Program {
	var gen func(depth int) []isa.Node
	gen = func(depth int) []isa.Node {
		var nodes []isa.Node
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(6); {
			case k < 3 || depth >= 3:
				nodes = append(nodes, isa.Code(1+rng.Intn(18)))
			case k == 3:
				nodes = append(nodes, isa.If(rng.Float64(), gen(depth+1), gen(depth+1)))
			case k == 4:
				nodes = append(nodes, isa.IfThen(rng.Float64(), gen(depth+1)...))
			default:
				b := 1 + rng.Intn(6)
				nodes = append(nodes, isa.Loop(b, float64(rng.Intn(b))+rng.Float64()*0.5, gen(depth+1)...))
			}
		}
		return nodes
	}
	return isa.Build(name, gen(0)...)
}

// diffMutate applies one random edit of the kinds the optimizer performs:
// a prefetch insertion (at either level) or removal, or a pad insertion
// that shifts the layout.
func diffMutate(rng *rand.Rand, p *isa.Program) bool {
	var at isa.InstrRef
	found := false
	for tries := 0; tries < 32 && !found; tries++ {
		b := p.Blocks[rng.Intn(len(p.Blocks))]
		if len(b.Instrs) >= 2 {
			at, found = isa.InstrRef{Block: b.ID, Index: rng.Intn(len(b.Instrs) - 1)}, true
		}
	}
	if !found {
		return false
	}
	switch r := rng.Intn(5); {
	case r == 0:
		for _, b := range p.Blocks {
			for i, in := range b.Instrs {
				if in.Kind == isa.KindPrefetch {
					p.RemoveInstr(isa.InstrRef{Block: b.ID, Index: i})
					return true
				}
			}
		}
		fallthrough
	case r < 4:
		tb := p.Blocks[rng.Intn(len(p.Blocks))]
		var lvl uint8
		if rng.Intn(3) == 0 {
			lvl = 2
		}
		p.InsertInstr(at, isa.Instr{Kind: isa.KindPrefetch, Level: lvl,
			Target: isa.InstrRef{Block: tb.ID, Index: rng.Intn(len(tb.Instrs))}})
	default:
		p.InsertInstr(at, isa.Instr{Kind: isa.KindPad})
	}
	return true
}

// TestClassifyInFixpointDifferential pins the classification rows the
// fixpoint records against the post-solve walk they replaced: on random
// programs and on looped Mälardalen programs, at the L1 and at the gated
// L2, for full analyses and along AnalyzeFrom / AnalyzeL2From chains of
// random edits, every block's Class row must equal the walk of its derived
// in-state. A row recorded before a cyclic component converged (a member's
// first round instead of its last) fails here.
func TestClassifyInFixpointDifferential(t *testing.T) {
	const lambda = 10
	steps := 6
	if testing.Short() {
		steps = 3
	}
	rng := rand.New(rand.NewSource(21))
	var progs []*isa.Program
	for i := 0; i < 10; i++ {
		progs = append(progs, diffRandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, name := range []string{"crc", "fdct", "bs"} {
		bm, ok := malardalen.ByName(name)
		if !ok {
			t.Fatalf("unknown program %s", name)
		}
		progs = append(progs, bm.Prog)
	}
	l1s := []cache.Config{
		{Assoc: 1, BlockBytes: 16, CapacityBytes: 128},
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 4, BlockBytes: 32, CapacityBytes: 512},
	}
	ctx := context.Background()
	checked := 0
	check := func(where string, r *Result) {
		t.Helper()
		for id := range r.Class {
			want := refClassify(r, id)
			if len(r.Class[id]) != len(want) {
				t.Fatalf("%s: block %d has %d classes, want %d", where, id, len(r.Class[id]), len(want))
			}
			for i := range want {
				if r.Class[id][i] != want[i] {
					t.Fatalf("%s: block %d ref %d (%s): %v, walk %v",
						where, id, i, r.X.Blocks[id].Ctx, r.Class[id][i], want[i])
				}
			}
			checked += len(want)
		}
	}
	for pi, p0 := range progs {
		for ci, l1 := range l1s {
			pol := cache.Policies()[(pi+ci)%len(cache.Policies())]
			h := cache.Hierarchy{L1: l1, L2: cache.Config{Assoc: 4, BlockBytes: 64, CapacityBytes: 4 * l1.CapacityBytes, Policy: pol}}
			h.L1.Policy = pol
			if err := h.Valid(); err != nil {
				t.Fatal(err)
			}
			p := p0.Clone()
			x, err := vivu.Expand(p)
			if err != nil {
				t.Fatal(err)
			}
			var r1, r2 *Result
			for step := 0; step <= steps; step++ {
				if step > 0 && !diffMutate(rng, p) {
					continue
				}
				lay := isa.NewLayout(p)
				if r1, err = AnalyzeFrom(ctx, x, lay, h.L1, lambda, r1); err != nil {
					t.Fatal(err)
				}
				if r2, err = AnalyzeL2From(ctx, x, lay, h, lambda, r1, r2); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s %v step %d", p.Name, h, step)
				check(where+" L1", r1)
				check(where+" L2", r2)
			}
		}
	}
	t.Logf("%d classifications checked", checked)
}
