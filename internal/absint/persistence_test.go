package absint

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ucp/internal/cache"
)

// The reference functions below are the flat persistence component this
// package used before saturated bounds moved into a bitset: every block
// ever loaded stays in its set, at most at the limit. They also keep the
// remove-then-insert form of the must and may hit updates. They exist only
// to pin the split representation to the semantics it replaces.

func refMustUpdate(s setState, m uint64, assoc uint8) setState {
	prev := assoc
	if i := s.find(m); i >= 0 {
		prev = s[i].age()
		s = s.remove(i)
	}
	w := 0
	for _, e := range s {
		if e.age() < prev {
			e++
		}
		if e.age() < assoc {
			s[w] = e
			w++
		}
	}
	return s[:w].insert(m, 0)
}

func refMayUpdate(s setState, m uint64, assoc uint8) setState {
	prev := assoc
	if i := s.find(m); i >= 0 {
		prev = s[i].age()
		s = s.remove(i)
	}
	w := 0
	for _, e := range s {
		if e.age() <= prev {
			e++
		}
		if e.age() < assoc {
			s[w] = e
			w++
		}
	}
	return s[:w].insert(m, 0)
}

func refPersUpdate(s setState, m uint64, assoc uint8) setState {
	prev := assoc
	if i := s.find(m); i >= 0 {
		prev = s[i].age()
		s = s.remove(i)
	}
	for i := range s {
		if a := s[i].age(); a < prev && a < assoc {
			s[i]++
		}
	}
	return s.insert(m, 0)
}

func refPersAgeAll(s setState, assoc uint8) setState {
	for i := range s {
		if s[i].age() < assoc {
			s[i]++
		}
	}
	return s
}

func refFifoPersMiss(s setState, m uint64, assoc uint8) setState {
	if i := s.find(m); i >= 0 {
		s = s.remove(i)
	}
	for j := range s {
		if s[j].age() < assoc {
			s[j]++
		}
	}
	return s.insert(m, 0)
}

func refFifoPersUnknown(s setState, m uint64, assoc uint8) setState {
	found := false
	for j := range s {
		if s[j].blk() == m {
			found = true
			continue
		}
		if s[j].age() < assoc {
			s[j]++
		}
	}
	if !found {
		s = s.insert(m, 0)
	}
	return s
}

func refJoinPersInto(dst, a, b setState) setState {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch ba, bb := a[i].blk(), b[j].blk(); {
		case ba < bb:
			dst = append(dst, a[i])
			i++
		case ba > bb:
			dst = append(dst, b[j])
			j++
		default:
			e := a[i]
			if b[j] > e {
				e = b[j]
			}
			dst = append(dst, e)
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// refState is an abstract state under the reference functions, driven by
// the same policy case split as policy.go.
type refState struct {
	cfg             cache.Config
	must, may, pers []setState
}

func newRefState(cfg cache.Config) *refState {
	n := cfg.NumSets()
	return &refState{cfg: cfg, must: make([]setState, n), may: make([]setState, n), pers: make([]setState, n)}
}

func (r *refState) clone() *refState {
	c := newRefState(r.cfg)
	for i := range r.must {
		c.must[i] = append(setState(nil), r.must[i]...)
		c.may[i] = append(setState(nil), r.may[i]...)
		c.pers[i] = append(setState(nil), r.pers[i]...)
	}
	return c
}

func (r *refState) access(blk uint64) {
	si := r.cfg.SetOf(blk)
	switch tr := transferFor(r.cfg, false).(type) {
	case lruTransfer:
		r.must[si] = refMustUpdate(r.must[si], blk, tr.assoc)
		r.may[si] = refMayUpdate(r.may[si], blk, tr.assoc)
		r.pers[si] = refPersUpdate(r.pers[si], blk, tr.assoc)
	case fifoTransfer:
		if r.must[si].find(blk) >= 0 {
			return
		}
		if r.may[si].find(blk) < 0 {
			r.must[si] = refMustUpdate(r.must[si], blk, tr.assoc)
			r.may[si] = refMayUpdate(r.may[si], blk, tr.assoc)
			r.pers[si] = refFifoPersMiss(r.pers[si], blk, tr.assoc)
			return
		}
		r.must[si] = fifoMustUnknown(r.must[si], blk, tr.assoc)
		r.may[si] = mayInsertFresh(r.may[si], blk)
		r.pers[si] = refFifoPersUnknown(r.pers[si], blk, tr.assoc)
	case plruTransfer:
		r.must[si] = refMustUpdate(r.must[si], blk, tr.eff)
		r.may[si] = mayInsertFresh(r.may[si], blk)
		r.pers[si] = refPersUpdate(r.pers[si], blk, tr.eff)
	}
}

func (r *refState) fill(blk uint64, effective bool) {
	si := r.cfg.SetOf(blk)
	switch tr := transferFor(r.cfg, false).(type) {
	case lruTransfer:
		if effective {
			r.must[si] = refMustUpdate(r.must[si], blk, tr.assoc)
			r.pers[si] = refPersUpdate(r.pers[si], blk, tr.assoc)
		} else {
			r.must[si] = mustAgeAll(r.must[si], tr.assoc)
			r.pers[si] = refPersAgeAll(r.pers[si], tr.assoc)
		}
		r.may[si] = mayInsertFresh(r.may[si], blk)
	case fifoTransfer:
		if effective {
			r.access(blk)
			return
		}
		r.must[si] = mustAgeAll(r.must[si], tr.assoc)
		r.may[si] = mayInsertFresh(r.may[si], blk)
		r.pers[si] = refPersAgeAll(r.pers[si], tr.assoc)
	case plruTransfer:
		if effective {
			r.must[si] = refMustUpdate(r.must[si], blk, tr.eff)
			r.pers[si] = refPersUpdate(r.pers[si], blk, tr.eff)
		} else {
			r.must[si] = mustAgeAll(r.must[si], tr.eff)
			r.pers[si] = refPersAgeAll(r.pers[si], tr.eff)
		}
		r.may[si] = mayInsertFresh(r.may[si], blk)
	}
}

func refJoin(a, b *refState) *refState {
	j := newRefState(a.cfg)
	for i := range a.must {
		j.must[i] = joinMust(a.must[i], b.must[i])
		j.may[i] = joinMay(a.may[i], b.may[i])
		j.pers[i] = refJoinPersInto(nil, a.pers[i], b.pers[i])
	}
	return j
}

func (r *refState) equal(o *refState) bool {
	for i := range r.must {
		if !r.must[i].equal(o.must[i]) || !r.may[i].equal(o.may[i]) || !r.pers[i].equal(o.pers[i]) {
			return false
		}
	}
	return true
}

// persLimit is the bound at which the transfer for cfg saturates a
// persistence entry.
func persLimit(cfg cache.Config) uint8 {
	switch tr := transferFor(cfg, false).(type) {
	case lruTransfer:
		return tr.assoc
	case fifoTransfer:
		return tr.assoc
	case plruTransfer:
		return tr.eff
	}
	panic("unknown transfer")
}

// checkSplit compares st with its reference over the blocks [lo, hi): must
// and may sets exactly; every block's persistence bound as young (same
// age), saturated (bit set) or never loaded (neither); Persistent; and the
// cached counts against the contents.
func checkSplit(st *State, r *refState, lo, hi uint64) error {
	lim := persLimit(st.cfg)
	var nm, ny, np, young, sat int
	for i := range r.must {
		if !st.view(nComp*i + cMust).equal(r.must[i]) {
			return fmt.Errorf("must set %d = %v, reference %v", i, st.view(nComp*i+cMust), r.must[i])
		}
		if !st.view(nComp*i + cMay).equal(r.may[i]) {
			return fmt.Errorf("may set %d = %v, reference %v", i, st.view(nComp*i+cMay), r.may[i])
		}
		nm += len(st.view(nComp*i + cMust))
		ny += len(st.view(nComp*i + cMay))
		np += len(st.view(nComp*i + cPers))
		for _, e := range r.pers[i] {
			if e.age() < lim {
				young++
			} else {
				sat++
			}
		}
	}
	for blk := lo; blk < hi; blk++ {
		si := st.cfg.SetOf(blk)
		ri := r.pers[si].find(blk)
		yi := st.view(nComp*si + cPers).find(blk)
		switch {
		case ri < 0:
			if yi >= 0 || st.satHas(blk) {
				return fmt.Errorf("block %d never loaded, but young %v saturated %v", blk, yi >= 0, st.satHas(blk))
			}
		case r.pers[si][ri].age() < lim:
			if yi < 0 || st.view(nComp*si + cPers)[yi] != r.pers[si][ri] || st.satHas(blk) {
				return fmt.Errorf("block %d: reference bound %d, young set %v, saturated %v",
					blk, r.pers[si][ri].age(), st.view(nComp*si+cPers), st.satHas(blk))
			}
		default:
			if yi >= 0 || !st.satHas(blk) {
				return fmt.Errorf("block %d: reference saturated, young %v, saturated %v", blk, yi >= 0, st.satHas(blk))
			}
		}
		wantPers := ri < 0 || r.pers[si][ri].age() < lim
		if st.Persistent(blk) != wantPers {
			return fmt.Errorf("block %d: Persistent = %v, reference %v", blk, !wantPers, wantPers)
		}
	}
	bitsSet := 0
	for _, w := range st.sat {
		bitsSet += bits.OnesCount64(w)
	}
	switch {
	case int(st.nMust) != nm || int(st.nMay) != ny || int(st.nPers) != np:
		return fmt.Errorf("counts must/may/pers %d/%d/%d, contents %d/%d/%d", st.nMust, st.nMay, st.nPers, nm, ny, np)
	case np != young:
		return fmt.Errorf("%d young entries, reference has %d bounds below the limit", np, young)
	case int(st.nSat) != bitsSet || bitsSet != sat:
		return fmt.Errorf("nSat %d, %d bits set, reference has %d bounds at the limit", st.nSat, bitsSet, sat)
	}
	return nil
}

// TestPersistenceSplitDifferential drives seeded random sequences of
// accesses, prefetch fills (effective or not), copies and pairwise joins
// through a small population of states and their flat references, under
// every policy and several geometries, and checks after every step that the
// young/saturated split holds exactly the reference's bounds, and that Equal
// and the interned hash agree with the reference's equality.
func TestPersistenceSplitDifferential(t *testing.T) {
	const (
		seqs  = 12
		steps = 300
		pop   = 4
		satLo = 1000 // bit 0 of the bitsets; blocks run from here
	)
	for _, pol := range cache.Policies() {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, nsets := range []int{1, 4} {
				cfg := cache.Config{Assoc: assoc, BlockBytes: 16, CapacityBytes: 16 * assoc * nsets, Policy: pol}
				if err := cfg.Valid(); err != nil {
					t.Fatal(err)
				}
				for seq := 0; seq < seqs; seq++ {
					rng := rand.New(rand.NewSource(int64(seq)))
					// Alternate a tight block range (frequent reloads) with
					// one spanning several bitset words.
					span := uint64(2*assoc*nsets + 1)
					if seq%2 == 1 {
						span = 150
					}
					sts := make([]*State, pop)
					refs := make([]*refState, pop)
					for k := range sts {
						sts[k], refs[k] = newState(cfg, satLo, false), newRefState(cfg)
					}
					spare := newState(cfg, satLo, false)
					for step := 0; step < steps; step++ {
						k := rng.Intn(pop)
						blk := satLo + uint64(rng.Int63n(int64(span)))
						var op string
						switch r := rng.Intn(20); {
						case r < 11:
							op = fmt.Sprintf("Access(%d)", blk)
							sts[k].Access(blk)
							refs[k].access(blk)
						case r < 15:
							eff := r < 13
							op = fmt.Sprintf("PrefetchFill(%d, %v)", blk, eff)
							sts[k].PrefetchFill(blk, eff)
							refs[k].fill(blk, eff)
						case r < 18:
							a, b := rng.Intn(pop), rng.Intn(pop)
							op = fmt.Sprintf("join(%d, %d)", a, b)
							// The spare is a recycled state whose buffers
							// still hold an older state's contents.
							spare.joinInto(sts[a], sts[b], nil)
							spare, sts[k] = sts[k], spare
							refs[k] = refJoin(refs[a], refs[b])
						default:
							src := rng.Intn(pop)
							if src == k {
								continue
							}
							op = fmt.Sprintf("copy(%d)", src)
							sts[k].copyFrom(sts[src])
							refs[k] = refs[src].clone()
						}
						where := fmt.Sprintf("%v seq %d step %d state %d %s", cfg, seq, step, k, op)
						if err := checkSplit(sts[k], refs[k], satLo, satLo+span); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						for o := range sts {
							want := refs[k].equal(refs[o])
							if got := sts[k].Equal(sts[o]); got != want {
								t.Fatalf("%s: Equal(state %d) = %v, reference %v", where, o, got, want)
							}
							if want && o != k {
								if internedHash(sts[k]) != internedHash(sts[o]) {
									t.Fatalf("%s: equal states %d and %d intern to different hashes", where, k, o)
								}
							}
						}
					}
				}
			}
		}
	}
}
