package absint

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"ucp/internal/cache"
)

// sliceState is the slice-per-set abstract state the entry arena replaced:
// one slice header per component and set, carved from a shared backing
// buffer with headroom, and hash-consed set interning for retained states.
// It runs the same policy case split and kernels; it exists only to pin the
// arena layout, its relocations and its compaction to the semantics of the
// representation it replaces.
type sliceState struct {
	cfg             cache.Config
	tr              policyTransfer
	must, may, pers []setState
	satSet
	nMust, nMay, nPers int32
	hash               uint64
	hashOK             bool
	buf                []entry
}

func newSliceState(cfg cache.Config, satLo uint64) *sliceState {
	n := cfg.NumSets()
	h := make([]setState, 3*n)
	return &sliceState{
		cfg:    cfg,
		tr:     transferFor(cfg, false),
		must:   h[0:n:n],
		may:    h[n : 2*n : 2*n],
		pers:   h[2*n:],
		satSet: satSet{satLo: satLo},
	}
}

func (s *sliceState) reserve(total int) {
	if cap(s.buf) < total {
		s.buf = make([]entry, total+total/4)
	}
}

func (s *sliceState) copyFrom(src *sliceState) {
	n := len(src.must)
	total := 0
	for i := 0; i < n; i++ {
		total += len(src.must[i]) + len(src.may[i]) + len(src.pers[i]) + 3*cloneHeadroom
	}
	s.reserve(total)
	buf := s.buf[:cap(s.buf)]
	off := 0
	carve := func(from setState) setState {
		l := len(from)
		dst := buf[off : off+l : off+l+cloneHeadroom]
		copy(dst, from)
		off += l + cloneHeadroom
		return dst
	}
	for i := 0; i < n; i++ {
		s.must[i] = carve(src.must[i])
		s.may[i] = carve(src.may[i])
		s.pers[i] = carve(src.pers[i])
	}
	s.sat = append(s.sat[:0], src.sat...)
	s.satLo = src.satLo
	s.nMust, s.nMay, s.nPers, s.nSat = src.nMust, src.nMay, src.nPers, src.nSat
	s.hash, s.hashOK = src.hash, src.hashOK
}

func (s *sliceState) clone() *sliceState {
	c := newSliceState(s.cfg, s.satLo)
	c.copyFrom(s)
	return c
}

func (s *sliceState) Equal(o *sliceState) bool {
	if s == o {
		return true
	}
	if s.cfg != o.cfg || s.nMust != o.nMust || s.nMay != o.nMay || s.nPers != o.nPers || s.nSat != o.nSat {
		return false
	}
	if s.nSat > 0 && s.satLo != o.satLo {
		return false
	}
	if s.hashOK && o.hashOK && s.hash != o.hash {
		return false
	}
	if !satEqual(s.sat, o.sat) {
		return false
	}
	for i := range s.must {
		if !s.must[i].equal(o.must[i]) || !s.may[i].equal(o.may[i]) || !s.pers[i].equal(o.pers[i]) {
			return false
		}
	}
	return true
}

func (s *sliceState) Classify(blk uint64) Classification {
	si := s.cfg.SetOf(blk)
	if s.must[si].find(blk) >= 0 {
		return AlwaysHit
	}
	if s.may[si].find(blk) < 0 {
		return AlwaysMiss
	}
	return NotClassified
}

func (s *sliceState) Access(blk uint64) {
	si := s.cfg.SetOf(blk)
	s.update(si, func() { s.access(si, blk) })
}

func (s *sliceState) PrefetchFill(blk uint64, effective bool) {
	si := s.cfg.SetOf(blk)
	s.update(si, func() { s.fill(si, blk, effective) })
}

// update runs a transfer on set si and keeps the cached counts.
func (s *sliceState) update(si int, transfer func()) {
	m0, y0, p0 := len(s.must[si]), len(s.may[si]), len(s.pers[si])
	transfer()
	s.nMust += int32(len(s.must[si]) - m0)
	s.nMay += int32(len(s.may[si]) - y0)
	s.nPers += int32(len(s.pers[si]) - p0)
	s.hashOK = false
}

// access and fill are the policy transfers as they worked on per-set
// slices: the same case split and kernels as policy.go.
func (s *sliceState) access(si int, blk uint64) {
	switch t := s.tr.(type) {
	case lruTransfer:
		s.must[si] = mustUpdate(s.must[si], blk, t.assoc)
		s.may[si] = mayUpdate(s.may[si], blk, t.assoc)
		s.pers[si] = persUpdate(&s.satSet, s.pers[si], blk, t.assoc)
	case fifoTransfer:
		if s.must[si].find(blk) >= 0 {
			return
		}
		if s.may[si].find(blk) < 0 {
			s.must[si] = mustUpdate(s.must[si], blk, t.assoc)
			s.may[si] = mayUpdate(s.may[si], blk, t.assoc)
			s.pers[si] = fifoPersMiss(&s.satSet, s.pers[si], blk, t.assoc)
			return
		}
		s.must[si] = fifoMustUnknown(s.must[si], blk, t.assoc)
		s.may[si] = mayInsertFresh(s.may[si], blk)
		s.pers[si] = fifoPersUnknown(&s.satSet, s.pers[si], blk, t.assoc)
	case plruTransfer:
		s.must[si] = mustUpdate(s.must[si], blk, t.eff)
		s.may[si] = mayInsertFresh(s.may[si], blk)
		s.pers[si] = persUpdate(&s.satSet, s.pers[si], blk, t.eff)
	}
}

func (s *sliceState) fill(si int, blk uint64, effective bool) {
	var lim uint8
	switch t := s.tr.(type) {
	case lruTransfer:
		lim = t.assoc
	case fifoTransfer:
		if effective {
			s.access(si, blk)
			return
		}
		lim = t.assoc
	case plruTransfer:
		lim = t.eff
	}
	if effective {
		s.must[si] = mustUpdate(s.must[si], blk, lim)
		s.pers[si] = persUpdate(&s.satSet, s.pers[si], blk, lim)
	} else {
		s.must[si] = mustAgeAll(s.must[si], lim)
		s.pers[si] = persAgeAll(&s.satSet, s.pers[si], lim)
	}
	s.may[si] = mayInsertFresh(s.may[si], blk)
}

func (s *sliceState) joinInto(a, b *sliceState) {
	long, short := a.sat, b.sat
	if len(long) < len(short) {
		long, short = short, long
	}
	s.sat = append(s.sat[:0], long...)
	var ns int
	for i, w := range s.sat {
		if i < len(short) {
			w |= short[i]
			s.sat[i] = w
		}
		ns += bits.OnesCount64(w)
	}
	s.satLo, s.nSat = a.satLo, int32(ns)

	n := len(a.must)
	total := 0
	for i := 0; i < n; i++ {
		total += min(len(a.must[i]), len(b.must[i])) +
			len(a.may[i]) + len(b.may[i]) +
			len(a.pers[i]) + len(b.pers[i])
	}
	s.reserve(total)
	buf := s.buf[:cap(s.buf)]
	off := 0
	var nm, ny, np int32
	for i := 0; i < n; i++ {
		bound := min(len(a.must[i]), len(b.must[i]))
		dst := joinMustInto(buf[off:off:off+bound], a.must[i], b.must[i])
		s.must[i] = dst
		nm += int32(len(dst))
		off += bound

		bound = len(a.may[i]) + len(b.may[i])
		dst = joinMayInto(buf[off:off:off+bound], a.may[i], b.may[i])
		s.may[i] = dst
		ny += int32(len(dst))
		off += bound

		bound = len(a.pers[i]) + len(b.pers[i])
		dst = joinPersInto(&s.satSet, buf[off:off:off+bound], a.pers[i], b.pers[i])
		s.pers[i] = dst
		np += int32(len(dst))
		off += bound
	}
	s.nMust, s.nMay, s.nPers = nm, ny, np
	s.hashOK = false
}

// sliceMaybeBuf is maybeBuf over sliceState.
type sliceMaybeBuf struct {
	must, may, pers, join setState
	sat                   []uint64
}

func (b *sliceMaybeBuf) accessMaybe(st *sliceState, blk uint64) {
	si := st.cfg.SetOf(blk)
	b.must = append(b.must[:0], st.must[si]...)
	b.may = append(b.may[:0], st.may[si]...)
	b.pers = append(b.pers[:0], st.pers[si]...)
	b.sat = append(b.sat[:0], st.sat...)
	st.Access(blk)

	for i, w := range b.sat {
		if d := w &^ st.sat[i]; d != 0 {
			st.sat[i] |= d
			st.nSat += int32(bits.OnesCount64(d))
		}
	}
	m0, y0, p0 := len(st.must[si]), len(st.may[si]), len(st.pers[si])
	b.join = joinMustInto(b.join[:0], b.must, st.must[si])
	st.must[si] = append(st.must[si][:0], b.join...)
	b.join = joinMayInto(b.join[:0], b.may, st.may[si])
	st.may[si] = append(st.may[si][:0], b.join...)
	b.join = joinPersInto(&st.satSet, b.join[:0], b.pers, st.pers[si])
	st.pers[si] = append(st.pers[si][:0], b.join...)
	st.nMust += int32(len(st.must[si]) - m0)
	st.nMay += int32(len(st.may[si]) - y0)
	st.nPers += int32(len(st.pers[si]) - p0)
	st.hashOK = false
}

// internTable hash-conses set states: identical sets of interned states
// share one canonical copy.
type internTable struct {
	m map[uint64][]setState
}

func newInternTable() *internTable { return &internTable{m: map[uint64][]setState{}} }

func (t *internTable) canon(s setState) (setState, uint64) {
	h := s.hash()
	if len(s) == 0 {
		return nil, h
	}
	for _, c := range t.m[h] {
		if c.equal(s) {
			return c, h
		}
	}
	c := append(make(setState, 0, len(s)), s...)
	t.m[h] = append(t.m[h], c)
	return c, h
}

// internState replaces every set of s with its canonical copy and drops the
// private buffer.
func (t *internTable) internState(s *sliceState) {
	n := len(s.must)
	for i := 0; i < n; i++ {
		s.must[i], _ = t.canon(s.must[i])
		s.may[i], _ = t.canon(s.may[i])
		s.pers[i], _ = t.canon(s.pers[i])
	}
	s.buf = nil
}

// arenaBase identifies the array behind s's arena.
func arenaBase(s *State) *entry {
	if cap(s.arena) == 0 {
		return nil
	}
	return &s.arena[:1][0]
}

// internedHash returns the hash Intern records for a state equal to s.
func internedHash(s *State) uint64 {
	c := s.Clone()
	c.compact(nil)
	return c.hash
}

// checkFlat compares st with its slice-per-set reference r: every set's
// entries, the cached counts (also against the contents), the saturated
// bitset, and Classify and Persistent over the blocks [lo, hi). It also
// checks the arena invariants: every span lies inside the arena, holds no
// more than its room, and overlaps no other span.
func checkFlat(st *State, r *sliceState, lo, hi uint64) error {
	var nm, ny, np int32
	for si := range r.must {
		for c, ref := range []setState{r.must[si], r.may[si], r.pers[si]} {
			if got := st.view(nComp*si + c); !got.equal(ref) {
				return fmt.Errorf("set %d component %d = %v, reference %v", si, c, got, ref)
			}
		}
		nm += int32(len(r.must[si]))
		ny += int32(len(r.may[si]))
		np += int32(len(r.pers[si]))
	}
	switch {
	case st.nMust != nm || st.nMay != ny || st.nPers != np:
		return fmt.Errorf("counts must/may/pers %d/%d/%d, reference contents %d/%d/%d", st.nMust, st.nMay, st.nPers, nm, ny, np)
	case st.nMust != r.nMust || st.nMay != r.nMay || st.nPers != r.nPers || st.nSat != r.nSat:
		return fmt.Errorf("counts %d/%d/%d/%d, reference %d/%d/%d/%d",
			st.nMust, st.nMay, st.nPers, st.nSat, r.nMust, r.nMay, r.nPers, r.nSat)
	case !satEqual(st.sat, r.sat):
		return fmt.Errorf("saturated bitset %x, reference %x", st.sat, r.sat)
	}
	n := 0
	for _, w := range st.sat {
		n += bits.OnesCount64(w)
	}
	if int(st.nSat) != n {
		return fmt.Errorf("nSat %d, %d bits set", st.nSat, n)
	}
	for blk := lo; blk < hi; blk++ {
		if got, want := st.Classify(blk), r.Classify(blk); got != want {
			return fmt.Errorf("Classify(%d) = %v, reference %v", blk, got, want)
		}
		if got, want := st.Persistent(blk), !r.satHas(blk); got != want {
			return fmt.Errorf("Persistent(%d) = %v, reference %v", blk, got, want)
		}
	}
	spans := append([]span(nil), st.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	end := int32(0)
	for _, sp := range spans {
		switch {
		case sp.n < 0 || sp.n > sp.cap:
			return fmt.Errorf("span %+v holds more than its room", sp)
		case int(sp.off+sp.cap) > len(st.arena):
			return fmt.Errorf("span %+v ends past the arena (%d entries)", sp, len(st.arena))
		case sp.cap > 0 && sp.off < end:
			return fmt.Errorf("span %+v overlaps the span ending at %d", sp, end)
		}
		end = max(end, sp.off+sp.cap)
	}
	return nil
}

// TestFlatStateDifferential drives seeded random sequences of accesses,
// prefetch fills (effective or not), Uncertain accesses, joins, copies and
// interning through a population of arena states and their slice-per-set
// references, under every policy and associativity 1, 2, 4 and 8, and
// checks after every step that the arena state holds exactly the
// reference's sets, counts, bitset and answers, and that Equal and the
// interned hash agree with the reference's Equal. Interned states join the
// population as read-only sources for copies and joins, so transfers grow
// their compacted sets; block ranges wide enough to push tree-PLRU may sets
// past smallSetScan, and arenas cut to their length now and then, drive
// relocations and repacks, which the test counts and requires.
func TestFlatStateDifferential(t *testing.T) {
	const (
		seqs  = 6
		steps = 400
		pop   = 4
		satLo = 1000
	)
	var relocs, repacks, longMay int
	for _, pol := range cache.Policies() {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, nsets := range []int{1, 3, 4} {
				cfg := cache.Config{Assoc: assoc, BlockBytes: 16, CapacityBytes: 16 * assoc * nsets, Policy: pol}
				if err := cfg.Valid(); err != nil {
					t.Fatal(err)
				}
				for seq := 0; seq < seqs; seq++ {
					rng := rand.New(rand.NewSource(int64(seq)))
					// Alternate a window a little larger than the cache
					// with one of about 24 blocks per set.
					span := uint64(2*assoc*nsets + 1)
					if seq%2 == 1 {
						span = uint64(24 * nsets)
					}
					sts := make([]*State, pop)
					refs := make([]*sliceState, pop)
					for k := range sts {
						sts[k], refs[k] = newState(cfg, satLo, false), newSliceState(cfg, satLo)
					}
					// frozen holds interned states: read-only sources.
					var frozen []*State
					var frozenRefs []*sliceState
					spare, spareRef := newState(cfg, satLo, false), newSliceState(cfg, satLo)
					var mb maybeBuf
					var rmb sliceMaybeBuf
					source := func() (*State, *sliceState) {
						i := rng.Intn(pop + len(frozen))
						if i < pop {
							return sts[i], refs[i]
						}
						return frozen[i-pop], frozenRefs[i-pop]
					}
					for step := 0; step < steps; step++ {
						k := rng.Intn(pop)
						st, ref := sts[k], refs[k]
						blk := satLo + uint64(rng.Int63n(int64(span)))
						if rng.Intn(16) == 0 {
							// No spare capacity: the next relocation repacks.
							st.arena = st.arena[:len(st.arena):len(st.arena)]
						}
						at, grown := arenaBase(st), len(st.arena)
						var op string
						transfer := true
						switch r := rng.Intn(24); {
						case r < 8:
							op = fmt.Sprintf("Access(%d)", blk)
							st.Access(blk)
							ref.Access(blk)
						case r < 12:
							eff := r < 10
							op = fmt.Sprintf("PrefetchFill(%d, %v)", blk, eff)
							st.PrefetchFill(blk, eff)
							ref.PrefetchFill(blk, eff)
						case r < 15:
							op = fmt.Sprintf("accessMaybe(%d)", blk)
							mb.accessMaybe(st, blk)
							rmb.accessMaybe(ref, blk)
						case r < 18:
							a, ar := source()
							b, br := source()
							op, transfer = "join", false
							spare.joinInto(a, b, nil)
							spareRef.joinInto(ar, br)
							spare, sts[k] = sts[k], spare
							spareRef, refs[k] = refs[k], spareRef
							st, ref = sts[k], refs[k]
						case r < 21:
							src, srcRef := source()
							if src == st {
								continue
							}
							op, transfer = "copy", false
							st.copyFrom(src)
							ref.copyFrom(srcRef)
						default:
							op, transfer = "Intern", false
							x, xr := st.Clone(), ref.clone()
							x.compact(nil)
							newInternTable().internState(xr)
							if err := checkFlat(x, xr, satLo, satLo+span); err != nil {
								t.Fatalf("%v seq %d step %d: interned copy of state %d: %v", cfg, seq, step, k, err)
							}
							if !x.Equal(st) || x.hash != internedHash(st) {
								t.Fatalf("%v seq %d step %d: interned copy of state %d differs from it", cfg, seq, step, k)
							}
							if len(frozen) < 4 {
								frozen, frozenRefs = append(frozen, x), append(frozenRefs, xr)
							} else {
								i := rng.Intn(len(frozen))
								frozen[i], frozenRefs[i] = x, xr
							}
						}
						switch {
						case !transfer:
						case arenaBase(st) != at:
							repacks++
						case len(st.arena) > grown:
							relocs++
						}
						where := fmt.Sprintf("%v seq %d step %d state %d %s", cfg, seq, step, k, op)
						if err := checkFlat(st, ref, satLo, satLo+span); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						for si := 0; si < nsets; si++ {
							if st.spans[nComp*si+cMay].n > smallSetScan {
								longMay++
							}
						}
						all, allRefs := append(append([]*State(nil), sts...), frozen...), append(append([]*sliceState(nil), refs...), frozenRefs...)
						for o := range all {
							want := ref.Equal(allRefs[o])
							if got := st.Equal(all[o]); got != want {
								t.Fatalf("%s: Equal(state %d) = %v, reference %v", where, o, got, want)
							}
							if want && internedHash(st) != internedHash(all[o]) {
								t.Fatalf("%s: equal states intern to different hashes", where)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d relocations, %d repacks, %d steps with a may set past smallSetScan", relocs, repacks, longMay)
	if relocs == 0 || repacks == 0 || longMay == 0 {
		t.Fatalf("relocations %d, repacks %d, long may sets %d: every path must run", relocs, repacks, longMay)
	}
}

// TestFlatStateCopyAllocs checks that copying into a pooled state whose
// arena is large enough allocates nothing: the copy is two bulk copies plus
// the saturated bitset's, all into buffers the state already holds.
func TestFlatStateCopyAllocs(t *testing.T) {
	cfg := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 16 * 4 * 64}
	const satLo = 1000
	rng := rand.New(rand.NewSource(1))
	src := newState(cfg, satLo, false)
	for i := 0; i < 2000; i++ {
		blk := satLo + uint64(rng.Intn(1024))
		if i%5 == 0 {
			src.PrefetchFill(blk, i%10 == 0)
		} else {
			src.Access(blk)
		}
	}
	compact := src.Clone()
	compact.compact(nil)
	dst := newState(cfg, satLo, false)
	for _, from := range []*State{src, compact} {
		dst.copyFrom(from) // size the arena and the bitset
		if n := testing.AllocsPerRun(100, func() { dst.copyFrom(from) }); n != 0 {
			t.Fatalf("copyFrom into a large-enough state allocates %.1f times per call", n)
		}
		if !dst.Equal(src) {
			t.Fatal("copy differs from its source")
		}
	}
}
