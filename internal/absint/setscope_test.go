package absint

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ucp/internal/cache"
)

// mergeJoin is the join of a and b with every set merged, the two inputs
// equal or not: the saturated bitsets OR, then each set's must, may and
// young persistence entries go through the merge kernels.
func mergeJoin(a, b *State) *State {
	s := newState(a.cfg, a.satLo, a.noAM)
	long, short := a.sat, b.sat
	if len(long) < len(short) {
		long, short = short, long
	}
	s.sat = append([]uint64(nil), long...)
	for i, w := range short {
		s.sat[i] |= w
	}
	for _, w := range s.sat {
		s.nSat += int32(bits.OnesCount64(w))
	}
	for k := 0; k < len(s.spans); k += nComp {
		s.nMust += s.store(k+cMust, joinMustInto(nil, a.view(k+cMust), b.view(k+cMust)))
		if !s.noAM {
			s.nMay += s.store(k+cMay, joinMayInto(nil, a.view(k+cMay), b.view(k+cMay)))
		}
		s.nPers += s.store(k+cPers, joinPersInto(&s.satSet, nil, a.view(k+cPers), b.view(k+cPers)))
	}
	return s
}

// randomOps pushes n random accesses and fills of blocks [lo, lo+span)
// through st.
func randomOps(rng *rand.Rand, st *State, n int, lo, span uint64) {
	for i := 0; i < n; i++ {
		blk := lo + uint64(rng.Int63n(int64(span)))
		if rng.Intn(4) == 0 {
			st.PrefetchFill(blk, rng.Intn(2) == 0)
		} else {
			st.Access(blk)
		}
	}
}

// TestJoinEqualSetsCopy holds joinInto, which copies a set component whose
// two inputs are equal, to the join that merges every set: for inputs equal
// in every set, in some sets and in none, under every policy, with and
// without the may component, whole and under a random set mask.
func TestJoinEqualSetsCopy(t *testing.T) {
	const satLo = 640
	rng := rand.New(rand.NewSource(28))
	for _, pol := range cache.Policies() {
		cfg := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 16 * 4 * 8, Policy: pol}
		for _, noAM := range []bool{false, true} {
			if noAM && keepsMay(cfg) {
				continue
			}
			for round := 0; round < 200; round++ {
				span := uint64(3 * cfg.NumSets() * cfg.Assoc)
				if round%2 == 1 {
					span = 200 // several bitset words
				}
				a := newState(cfg, satLo, noAM)
				randomOps(rng, a, 10+rng.Intn(60), satLo, span)
				b := a.Clone()
				kind := "equal"
				switch round % 3 {
				case 1:
					kind = "partly equal"
					randomOps(rng, b, 1+rng.Intn(3), satLo, span)
				case 2:
					kind = "unequal"
					b = newState(cfg, satLo, noAM)
					randomOps(rng, b, 10+rng.Intn(60), satLo, span)
				}
				where := fmt.Sprintf("%v noAM=%v round %d (%s inputs)", pol, noAM, round, kind)
				want := mergeJoin(a, b)
				got := newState(cfg, satLo, noAM)
				randomOps(rng, got, 20, satLo, span) // stale contents to overwrite
				got.joinInto(a, b, nil)
				if !got.Equal(want) {
					t.Fatalf("%s: join differs from the merged join", where)
				}

				m := &setMask{on: make([]bool, cfg.NumSets()), sat: make([]uint64, 1)}
				for si := range m.on {
					if rng.Intn(2) == 0 {
						m.on[si] = true
						m.list = append(m.list, int32(si))
					}
				}
				for j := 0; j < 64; j++ {
					if m.on[got.setOf(satLo+uint64(j))] {
						m.sat[0] |= 1 << j
					}
				}
				got.joinInto(a, b, m)
				masked := a.Clone()
				masked.overlay(got, m)
				ref := a.Clone()
				ref.overlay(want, m)
				if !masked.Equal(ref) || !ref.equalIn(masked, m) {
					t.Fatalf("%s: masked join differs from the merged join on sets %v", where, m.list)
				}
			}
		}
	}
}

// TestSetMaskProjections pins which cache sets scopeSets re-solves for a
// hand-made edited row, and how fillVerdicts maps the verdicts of the other
// sets' fetches: by the fetch's position in its set's projection, not by its
// index in the row.
func TestSetMaskProjections(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 16 * 2 * 4} // 4 sets
	sc := newScratch(cfg, 0, false)
	acc := func(blk uint64) opRec { return opRec{acc: blk} }
	pft := func(blk, tgt uint64, eff bool) opRec {
		return opRec{acc: blk, pft: true, fills: true, tgt: tgt, eff: eff}
	}
	old := []opRec{acc(0), acc(1), acc(2), acc(5), pft(6, 11, false), acc(3)}
	for _, c := range []struct {
		name string
		row  []opRec
		want []int32 // re-solved sets; nil: every set
	}{
		{"same row", old, []int32{}},
		// Sets 0, 1 and 2 keep their event order; only the interleaving
		// across sets changes.
		{"sets interleaved differently", []opRec{acc(1), acc(0), acc(5), acc(2), pft(6, 11, false), acc(3)}, []int32{}},
		{"effectiveness flip", []opRec{acc(0), acc(1), acc(2), acc(5), pft(6, 11, true), acc(3)}, []int32{3}},
		{"gated-off fetch inserted", []opRec{acc(0), {acc: 4, cac: cacNever}, acc(1), acc(2), acc(5), pft(6, 11, false), acc(3)}, []int32{0}},
		{"prefetch inserted", []opRec{acc(0), pft(1, 9, false), acc(2), acc(5), pft(6, 11, false), acc(3)}, []int32{1}},
		{"every set", []opRec{acc(4), acc(5), acc(6), acc(7)}, nil},
	} {
		rows := [][]opRec{c.row}
		m := sc.scopeSets([][]opRec{old}, rows, []bool{true})
		if c.want == nil {
			if m != nil {
				t.Errorf("%s: mask %v, want every set", c.name, m.list)
			}
			continue
		}
		if m == nil || fmt.Sprint(m.list) != fmt.Sprint(c.want) {
			t.Errorf("%s: mask %v, want %v", c.name, m, c.want)
			continue
		}
		// Give every old verdict a distinct value; a fetch on an unmasked set
		// must read the value of the same fetch in the old row.
		prevCls := []Classification{10, 11, 12, 13, 14, 15}
		cls := make([]Classification, len(c.row))
		for i := range cls {
			cls[i] = 9
		}
		sc.fillVerdicts(m, cls, c.row, old, prevCls, false)
		for i, op := range c.row {
			s := sc.empty.setOf(op.acc)
			if m.on[s] {
				if cls[i] != 9 {
					t.Errorf("%s: fetch %d on re-solved set %d got a seeded verdict", c.name, i, s)
				}
				continue
			}
			j := -1
			for k, o := range old {
				if o.acc == op.acc {
					j = k
				}
			}
			if cls[i] != prevCls[j] {
				t.Errorf("%s: fetch %d of block %d got verdict %d, want old fetch %d's %d", c.name, i, op.acc, cls[i], j, prevCls[j])
			}
		}
	}
}
