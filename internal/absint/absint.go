// Package absint implements the abstract cache semantics of classical
// cache-aware WCET analysis (Ferdinand-style must/may analysis with LRU
// aging), extended — as the paper requires — with the effect of software
// prefetch instructions. The fixpoint runs on the VIVU-expanded graph, so
// first-iteration and other-iteration references of every loop are
// classified separately. The transfer functions are selected by the cache
// configuration's replacement policy (see policy.go): LRU is the paper's
// exact semantics, FIFO and tree-PLRU use sound but coarser transfers.
//
// Classification soundness is the load-bearing invariant: a reference
// classified AlwaysHit must hit in every concrete execution that respects
// the loop bounds (a property test in this repository checks exactly that).
// Prefetch fills therefore enter the must state only when the fill latency
// is provably hidden (the prefetch is *effective* in the sense of the
// paper's Definition 10); otherwise the fill only ages the target set in the
// must state and joins the may state.
//
// Besides the one-shot Analyze (and AnalyzeL2 behind it, see hier.go), the
// package offers AnalyzeChain, which also re-analyzes incrementally from a
// previous Result of the same level (see incremental.go): only the blocks
// whose transfer function actually changed — and the region reachable from
// them — are re-solved, which is what makes the optimizer's
// validate-and-commit loop affordable.
package absint

import (
	"context"
	"math/bits"
	"sort"

	"ucp/internal/cache"
	"ucp/internal/faults"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

// Classification is the outcome of abstract interpretation for one
// reference.
type Classification uint8

const (
	// NotClassified: the reference may hit or miss; WCET analysis must
	// assume a miss.
	NotClassified Classification = iota
	// AlwaysHit: the must analysis guarantees the block is cached.
	AlwaysHit
	// AlwaysMiss: the may analysis guarantees the block is absent. WCET
	// pricing charges it like NotClassified; only the L2's access gate
	// (cacOf), FIFO's transfer and the explain report read it, so an
	// analysis chain nothing of the kind reads drops the may component and
	// answers NotClassified instead (see Result.HasAlwaysMiss and
	// DESIGN.md §9).
	AlwaysMiss
	// FirstMiss: the persistence analysis guarantees the block, once
	// loaded, is never evicted — the reference misses at most on the first
	// iteration of its context. WCET analysis charges the miss to the
	// first-iteration instance and a hit to the other-iterations one.
	FirstMiss
)

// String returns the conventional two-letter tag for the classification.
func (c Classification) String() string {
	switch c {
	case AlwaysHit:
		return "AH"
	case AlwaysMiss:
		return "AM"
	case FirstMiss:
		return "FM"
	default:
		return "NC"
	}
}

// entry packs a memory block and its age bound into one word: the block
// number in the upper 56 bits, the age in the low 8. Memory-block numbers
// are addresses divided by the line size, far below 2^56, and ages are
// capped at the associativity, far below 2^8. The packing halves the bytes
// every state copy, join, and comparison moves, and makes entry comparison
// a single integer compare. Within one cache set a block appears at most
// once, so ordering entries by their packed value orders them by block.
type entry uint64

const ageBits = 8

func mkEntry(blk uint64, age uint8) entry { return entry(blk<<ageBits | uint64(age)) }

func (e entry) blk() uint64 { return uint64(e) >> ageBits }
func (e entry) age() uint8  { return uint8(e) }

// setState is a view of one component of one cache set: blocks paired with
// age bounds (upper bounds in must states, lower bounds in may states),
// sorted by block for canonical comparison. The views a State hands out are
// carved from its arena (see span); the update kernels below work on them in
// place and never grow one past its capacity.
type setState []entry

// smallSetScan is the length up to which find and insert use a linear scan
// instead of a binary search. Every Table 2 configuration has assoc ≤ 4, so
// must and may sets and the young persistence bounds stay around four
// entries and take the scan path; only tree-PLRU may sets (which accumulate
// every possibly-resident block) grow past it.
const smallSetScan = 8

func (s setState) find(blk uint64) int {
	if len(s) <= smallSetScan {
		for i := range s {
			if b := s[i].blk(); b == blk {
				return i
			} else if b > blk {
				return -1
			}
		}
		return -1
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].blk() >= blk })
	if i < len(s) && s[i].blk() == blk {
		return i
	}
	return -1
}

func (s setState) insert(blk uint64, age uint8) setState {
	var i int
	if len(s) <= smallSetScan {
		for i < len(s) && s[i].blk() < blk {
			i++
		}
	} else {
		i = sort.Search(len(s), func(i int) bool { return s[i].blk() >= blk })
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = mkEntry(blk, age)
	return s
}

func (s setState) remove(i int) setState { return append(s[:i], s[i+1:]...) }

func (s setState) equal(o setState) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// sets holds the three component views of one cache set while a policy
// transfer (see policy.go) updates them.
type sets struct{ must, may, pers setState }

// span locates one component of one cache set in a State's arena: the
// entries are arena[off : off+n], and the slots up to off+cap are the set's
// own room to grow into.
type span struct{ off, n, cap int32 }

// Components of a cache set; the span of component c of set si is
// spans[nComp*si + c], so the three spans a transfer touches are adjacent.
const (
	cMust = iota
	cMay
	cPers
	nComp
)

// satSet is the saturated part of the persistence component: bit b−satLo of
// sat is set iff block b was loaded on some path and its bound has reached
// the limit. Words missing at the end read as zero. satLo is the block
// number of bit 0, fixed per chain of analyses (the first block of the
// program text), so every state of a chain indexes the same blocks with the
// same bits. nSat counts the bits set.
type satSet struct {
	sat   []uint64
	satLo uint64
	nSat  int32
}

// State is an abstract cache state: a must, a may, and a persistence
// component per set. The persistence component tracks, for every block ever
// loaded, an upper bound on its maximal LRU age since that load; a block
// whose bound stays below the policy's persistence limit can never have been
// evicted (bounds are capped at the limit, the "maybe evicted" top element).
//
// The persistence component is split in two. The young bounds, those
// strictly below the limit, are kept per set like must and may. A bound that
// reaches the limit can only change again by a reload of its block, so the
// saturated blocks are kept as one bitset (satSet) instead of entry by
// entry. A block is therefore young, saturated, or never loaded, and never
// two of these at once.
//
// A state holds no pointer per set: every set lives in one entry arena,
// located by an integer span table. Copying a state is a bulk
// copy of the arena and one of the table, and neither store needs a write
// barrier. A set that outgrows its room moves to the arena's tail (see
// relocate); it never leaves the arena. A full analysis compacts the exit
// states it keeps (see compact); they are owned, retired and recycled like
// every other state.
type State struct {
	cfg cache.Config
	tr  policyTransfer // transfer functions for cfg.Policy (see policy.go)
	// arena[:len(arena)] holds every span, the room between and after their
	// entries included; its spare capacity is where relocated sets go.
	arena []entry
	spans []span
	// nsets is cfg.NumSets(), kept so locating a block's spans (see spanOf)
	// costs a mask, or one division for a set count that is no power of two.
	nsets uint64
	satSet
	// nMust/nMay/nPers (and satSet's nSat) cache the total entry (or bit)
	// count per component so Equal rejects differing states in O(1) — the
	// dominant outcome inside the fixpoint.
	nMust, nMay, nPers int32
	// noAM marks a state without a may component: its transfer skips the
	// may update, every may span stays empty, and Classify answers
	// NotClassified where a may component could prove AlwaysMiss. It is
	// fixed per chain of analyses (see statePool).
	noAM bool
}

// NewState returns the abstract state of an empty cache: nothing is
// guaranteed resident (must = ∅) and nothing may be resident (may = ∅), the
// cold-start state ĉ_I.
func NewState(cfg cache.Config) *State { return newState(cfg, 0, false) }

// newState is NewState for a chain whose saturated bitset starts at block
// satLo; noAM drops the may component, which only a policy whose transfer
// does not read it allows (see keepsMay).
func newState(cfg cache.Config, satLo uint64, noAM bool) *State {
	return &State{
		cfg:    cfg,
		tr:     transferFor(cfg, noAM),
		spans:  make([]span, nComp*cfg.NumSets()),
		nsets:  uint64(cfg.NumSets()),
		satSet: satSet{satLo: satLo},
		noAM:   noAM,
	}
}

// cloneHeadroom is the room a join or a repack leaves after each set's
// entries, so the following transfer's insertions rarely relocate it.
const cloneHeadroom = 2

// setOf returns the index of blk's cache set.
func (s *State) setOf(blk uint64) int {
	if s.nsets&(s.nsets-1) == 0 {
		return int(blk & (s.nsets - 1))
	}
	return int(blk % s.nsets)
}

// spanOf returns the index of the first span of blk's cache set.
func (s *State) spanOf(blk uint64) int { return nComp * s.setOf(blk) }

// view returns the entries of span k, with no room to grow: an append to it
// copies instead of writing into a neighbor's slots.
func (s *State) view(k int) setState {
	sp := s.spans[k]
	return s.arena[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// slot returns the entries of span k with the span's room as capacity.
func (s *State) slot(k int) setState {
	sp := s.spans[k]
	return s.arena[sp.off : sp.off+sp.n : sp.off+sp.cap]
}

// live counts the entries of all spans.
func (s *State) live() int { return int(s.nMust + s.nMay + s.nPers) }

// relocate gives span k room for need entries (and some headroom) at the
// arena's tail, copying its entries there; the slots it leaves stay unused
// until the arena is next rebuilt. An arena without that much spare capacity
// is repacked into a larger one instead.
func (s *State) relocate(k, need int) {
	c := need + max(cloneHeadroom, need/2)
	end := len(s.arena)
	if end+c > cap(s.arena) {
		s.repack(k, c)
		return
	}
	sp := &s.spans[k]
	s.arena = s.arena[:end+c]
	copy(s.arena[end:], s.arena[sp.off:sp.off+sp.n])
	sp.off, sp.cap = int32(end), int32(c)
}

// repack moves every span into a fresh arena, in span order without the
// holes relocations left, each with cloneHeadroom slots of room and span k
// with room for c entries. The new arena keeps half its size spare for later
// relocations and is at least twice as large as the old one, so a pooled
// state that keeps meeting transfers that relocate many sets stops
// repacking after a few rounds.
func (s *State) repack(k, c int) {
	size := c
	for _, sp := range s.spans {
		size += int(sp.n) + cloneHeadroom
	}
	arena := make([]entry, 0, max(size+size/2, 2*cap(s.arena)))
	for i := range s.spans {
		sp := &s.spans[i]
		room := int(sp.n) + cloneHeadroom
		if i == k {
			room = max(room, c)
		}
		off := len(arena)
		arena = append(arena, s.arena[sp.off:sp.off+sp.n]...)
		arena = arena[:off+room]
		sp.off, sp.cap = int32(off), int32(room)
	}
	s.arena = arena
}

// open returns the three component views of the set whose spans start at k,
// each with room for at least one more entry: a transfer inserts at most one
// entry per component. A state without a may component leaves its empty may
// span as it is.
func (s *State) open(k int) sets {
	for c := k; c < k+nComp; c++ {
		if sp := s.spans[c]; sp.n == sp.cap && (c != k+cMay || !s.noAM) {
			s.relocate(c, int(sp.n)+1)
		}
	}
	return sets{s.slot(k + cMust), s.slot(k + cMay), s.slot(k + cPers)}
}

// commit records the views a transfer updated for the set whose spans
// start at k and updates the cached counts.
func (s *State) commit(k int, v *sets) {
	s.nMust += s.setLen(k+cMust, v.must)
	s.nMay += s.setLen(k+cMay, v.may)
	s.nPers += s.setLen(k+cPers, v.pers)
}

// setLen records len(v) as span k's length and returns the change. v must
// be the span's slot as updated in place; a kernel that appended past the
// slot's capacity would have moved it off the arena.
func (s *State) setLen(k int, v setState) int32 {
	sp := &s.spans[k]
	if len(v) > 0 && &v[0] != &s.arena[sp.off] {
		panic("absint: a set update left its arena")
	}
	d := int32(len(v)) - sp.n
	sp.n = int32(len(v))
	return d
}

// store overwrites span k's entries with v, relocating the span when v
// does not fit its room, and returns the change in length.
func (s *State) store(k int, v setState) int32 {
	if int(s.spans[k].cap) < len(v) {
		s.relocate(k, len(v))
	}
	sp := &s.spans[k]
	copy(s.arena[sp.off:], v)
	d := int32(len(v)) - sp.n
	sp.n = int32(len(v))
	return d
}

// copyFrom makes s an exact copy of src — the same arena contents and the
// same span table — reusing s's arena when it is large enough. s and src
// must share a configuration and a transfer.
func (s *State) copyFrom(src *State) {
	if n := len(src.arena); cap(s.arena) < n {
		s.arena = make([]entry, n, n+n/4)
	} else {
		s.arena = s.arena[:n]
	}
	copy(s.arena, src.arena)
	copy(s.spans, src.spans)
	s.sat = append(s.sat[:0], src.sat...)
	s.satLo, s.nSat = src.satLo, src.nSat
	s.nMust, s.nMay, s.nPers = src.nMust, src.nMay, src.nPers
}

// Clone deep-copies the state, its transfer included.
func (s *State) Clone() *State {
	c := newState(s.cfg, s.satLo, s.noAM)
	c.copyFrom(s)
	return c
}

// Equal reports whether two states are identical. The cached entry counts
// reject most unequal states without walking the sets.
func (s *State) Equal(o *State) bool { return s.equalIn(o, nil) }

// equalIn is Equal over the cache sets of mask m (every set when m is nil),
// for two states whose other sets are known to be equal: the cached counts
// then still tell the states apart, and only the sets and the saturated
// bits of m are walked.
func (s *State) equalIn(o *State, m *setMask) bool {
	if s == o {
		return true
	}
	if s.cfg != o.cfg || s.nMust != o.nMust || s.nMay != o.nMay || s.nPers != o.nPers || s.nSat != o.nSat {
		return false
	}
	if s.nSat > 0 && s.satLo != o.satLo {
		return false // bitsets of different chains number blocks differently
	}
	if m == nil {
		if !satEqual(s.sat, o.sat) {
			return false
		}
		for k := range s.spans {
			if !s.view(k).equal(o.view(k)) {
				return false
			}
		}
		return true
	}
	if !m.satEqual(s.sat, o.sat) {
		return false
	}
	for _, si := range m.list {
		for k := nComp * int(si); k < nComp*int(si)+nComp; k++ {
			if !s.view(k).equal(o.view(k)) {
				return false
			}
		}
	}
	return true
}

// MustContains reports whether blk is guaranteed resident.
func (s *State) MustContains(blk uint64) bool {
	return s.view(s.spanOf(blk)+cMust).find(blk) >= 0
}

// MayContains reports whether blk may be resident. A state without a may
// component cannot rule out any block.
func (s *State) MayContains(blk uint64) bool {
	return s.noAM || s.view(s.spanOf(blk)+cMay).find(blk) >= 0
}

// Persistent reports whether blk, if it was ever loaded, is guaranteed not
// to have been evicted since (its persistence age bound is below the
// policy's persistence horizon — the associativity for LRU and FIFO, the
// log2(a)+1 virtual associativity for tree-PLRU). A block never loaded on
// any path reaching here is persistent too: the access itself will be the
// (single) first load.
func (s *State) Persistent(blk uint64) bool { return !s.satHas(blk) }

// satHas reports whether blk's persistence bound is saturated.
func (t *satSet) satHas(blk uint64) bool {
	i := blk - t.satLo
	w := i / 64
	return w < uint64(len(t.sat)) && t.sat[w]&(1<<(i%64)) != 0
}

// satAdd marks blk saturated; its bound just reached the limit, so it is not
// young.
func (t *satSet) satAdd(blk uint64) {
	if blk < t.satLo {
		panic("absint: memory block below the chain's first block")
	}
	i := blk - t.satLo
	w := int(i / 64)
	for len(t.sat) <= w {
		t.sat = append(t.sat, 0)
	}
	t.sat[w] |= 1 << (i % 64)
	t.nSat++
}

// satDel clears blk's saturated bit, if set: the block is being reloaded.
func (t *satSet) satDel(blk uint64) {
	i := blk - t.satLo
	if w := i / 64; w < uint64(len(t.sat)) {
		if bit := uint64(1) << (i % 64); t.sat[w]&bit != 0 {
			t.sat[w] &^= bit
			t.nSat--
		}
	}
}

// satEqual compares two bitsets, reading missing trailing words as zero.
func satEqual(a, b []uint64) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Classify returns the classification of an access to blk in this state. A
// state without a may component never answers AlwaysMiss.
func (s *State) Classify(blk uint64) Classification {
	k := s.spanOf(blk)
	if s.view(k+cMust).find(blk) >= 0 {
		return AlwaysHit
	}
	if s.noAM || s.view(k+cMay).find(blk) >= 0 {
		return NotClassified
	}
	return AlwaysMiss
}

// Access applies the abstract update for a reference to blk to all
// components (the abstract update function Û) under the configured
// replacement policy.
func (s *State) Access(blk uint64) {
	s.tr.access(s, s.spanOf(blk), blk)
}

// PrefetchFill applies the abstract effect of a prefetch fill of blk.
//
// Must component: when the prefetch is effective the fill is guaranteed
// complete before the next use of blk, so it behaves like an access;
// otherwise the fill lands at an unknown time and may displace any
// guaranteed block, so the component only ages.
//
// May component: the fill *may* have landed immediately, so blk enters at
// age zero — but it may equally still be in flight, so no other block's
// minimum age grows (the join of the filled and unfilled possibilities).
func (s *State) PrefetchFill(blk uint64, effective bool) {
	s.tr.fill(s, s.spanOf(blk), blk, effective)
}

// mustUpdate is the must-analysis LRU update: the accessed block gets age 0;
// blocks younger than its previous upper-bound age grow older by one; blocks
// aged past the associativity are no longer guaranteed. The input slice is
// updated in place (callers own their states). A hit keeps its sorted slot:
// the blocks it ages stay below its old age, so none falls out.
func mustUpdate(s setState, m uint64, assoc uint8) setState {
	i := s.find(m)
	if i < 0 {
		return mustAgeAll(s, assoc).insert(m, 0)
	}
	prev := s[i].age()
	for j, e := range s {
		if e.age() < prev {
			s[j] = e + 1 // ages live in the low bits, so +1 ages the entry
		}
	}
	s[i] = mkEntry(m, 0)
	return s
}

// mustAgeAll ages every guaranteed block by one (the conservative must
// update for a fill whose completion time is unknown), in place.
func mustAgeAll(s setState, assoc uint8) setState {
	w := 0
	for _, e := range s {
		e++
		if e.age() < assoc {
			s[w] = e
			w++
		}
	}
	return s[:w]
}

// mayInsertFresh adds blk at minimum age zero without aging anything else:
// the may effect of an event that may or may not have happened yet.
func mayInsertFresh(s setState, blk uint64) setState {
	if i := s.find(blk); i >= 0 {
		s[i] = mkEntry(blk, 0)
		return s
	}
	return s.insert(blk, 0)
}

// persUpdate is the persistence update: the accessed block's age bound
// resets to zero (a reload takes it out of the saturated part); younger
// blocks age by one, and a bound that reaches the limit moves to the
// saturated part — once a block has been seen, the analysis keeps tracking
// whether it could have been evicted. A young block's update keeps its
// sorted slot: the bounds it ages stay below its old bound, so none
// saturates.
func persUpdate(st *satSet, s setState, m uint64, lim uint8) setState {
	i := s.find(m)
	if i < 0 {
		st.satDel(m)
		return persAgeAll(st, s, lim).insert(m, 0)
	}
	prev := s[i].age()
	for j, e := range s {
		if e.age() < prev {
			s[j] = e + 1
		}
	}
	s[i] = mkEntry(m, 0)
	return s
}

// persAgeAll ages every young bound (a fill at an unknown time), moving the
// ones that reach the limit to the saturated part.
func persAgeAll(st *satSet, s setState, lim uint8) setState {
	w := 0
	for _, e := range s {
		e++
		if e.age() == lim {
			st.satAdd(e.blk())
			continue
		}
		s[w] = e
		w++
	}
	return s[:w]
}

// joinPersInto merges young persistence bounds (union with maximal age
// bounds) by appending to dst, which the caller sizes to len(a)+len(b). A
// block saturated in st, the join result, is dropped: the maximum of a
// young bound and the limit is the limit.
func joinPersInto(st *satSet, dst, a, b setState) setState {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var e entry
		switch {
		case j == len(b) || i < len(a) && a[i].blk() < b[j].blk():
			e = a[i]
			i++
		case i == len(a) || a[i].blk() > b[j].blk():
			e = b[j]
			j++
		default:
			// Equal blocks: the larger packed value carries the larger age.
			e = max(a[i], b[j])
			i, j = i+1, j+1
		}
		if !st.satHas(e.blk()) {
			dst = append(dst, e)
		}
	}
	return dst
}

// mayUpdate is the may-analysis LRU update: the accessed block gets age 0;
// blocks whose lower-bound age does not exceed its previous lower bound grow
// older by one; blocks aged past the associativity cannot be resident. A
// hit keeps its sorted slot; the one pass ages and compacts the rest.
func mayUpdate(s setState, m uint64, assoc uint8) setState {
	i := s.find(m)
	if i < 0 {
		return mustAgeAll(s, assoc).insert(m, 0)
	}
	prev := s[i].age()
	w := 0
	for j, e := range s {
		switch {
		case j == i:
			e = mkEntry(m, 0)
		case e.age() <= prev:
			e++
		}
		if e.age() < assoc {
			s[w] = e
			w++
		}
	}
	return s[:w]
}

// joinInto sets s to the join of a and b (which must not be s), reusing s's
// arena: the must component intersects (keeping maximal ages) and the may
// component unites (keeping minimal ages) — the classical join functions of
// [8] — and the persistence component unites with maximal bounds: the
// saturated bitsets OR first, then the young merge drops whatever came out
// saturated. A set component whose two inputs are equal is copied, since
// the join of a set with itself is the set. That holds for the young
// persistence entries too: a block young on both sides is saturated on
// neither (a block is never young and saturated at once), so the ORed
// bitset drops none of them. Each set is joined straight into the arena
// behind the one before it, with cloneHeadroom slots of room, so the result
// is packed without holes.
// Without a may component (s, a and b share their chain's) the may spans
// stay empty and get no room.
//
// A non-nil mask m joins only its sets; every other span of s is left
// empty, so s is only good for reading m's sets (see setMask). The
// saturated bitsets still OR whole: that is a few words.
func (s *State) joinInto(a, b *State, m *setMask) {
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

	// Every set's join is at most as long as its two inputs together, so
	// the inputs' entries plus the room bound the arena the packing needs.
	need := a.live() + b.live() + len(s.spans)*cloneHeadroom
	if cap(s.arena) < need {
		s.arena = make([]entry, 0, need+need/4)
	}
	s.arena = s.arena[:cap(s.arena)]
	s.nMust, s.nMay, s.nPers = 0, 0, 0
	off := 0
	if m == nil {
		for k := 0; k < len(s.spans); k += nComp {
			off = s.joinSet(k, off, a, b)
		}
	} else {
		clear(s.spans)
		for _, si := range m.list {
			off = s.joinSet(nComp*int(si), off, a, b)
		}
	}
	s.arena = s.arena[:off]
}

// joinSet joins the set whose spans start at k of a and b into s's arena at
// offset off (see joinInto) and returns the offset after it.
func (s *State) joinSet(k, off int, a, b *State) int {
	buf := s.arena
	if va, vb := a.view(k+cMust), b.view(k+cMust); va.equal(vb) {
		off = s.place(k+cMust, off, append(buf[off:off], va...))
	} else {
		off = s.place(k+cMust, off, joinMustInto(buf[off:off], va, vb))
	}
	if s.noAM {
		s.spans[k+cMay] = span{off: int32(off)}
	} else if va, vb := a.view(k+cMay), b.view(k+cMay); va.equal(vb) {
		off = s.place(k+cMay, off, append(buf[off:off], va...))
	} else {
		off = s.place(k+cMay, off, joinMayInto(buf[off:off], va, vb))
	}
	if va, vb := a.view(k+cPers), b.view(k+cPers); va.equal(vb) {
		off = s.place(k+cPers, off, append(buf[off:off], va...))
	} else {
		off = s.place(k+cPers, off, joinPersInto(&s.satSet, buf[off:off], va, vb))
	}
	s.nMust += s.spans[k+cMust].n
	s.nMay += s.spans[k+cMay].n
	s.nPers += s.spans[k+cPers].n
	return off
}

// place records v, just written at arena offset off, as span k with
// cloneHeadroom slots of room, and returns the offset after that room.
func (s *State) place(k, off int, v setState) int {
	s.spans[k] = span{off: int32(off), n: int32(len(v)), cap: int32(len(v) + cloneHeadroom)}
	return off + len(v) + cloneHeadroom
}

func joinMustInto(dst, a, b setState) setState {
	for _, ea := range a {
		if j := b.find(ea.blk()); j >= 0 {
			// Equal blocks: the larger packed value carries the larger age.
			e := ea
			if b[j] > e {
				e = b[j]
			}
			dst = append(dst, e)
		}
	}
	return dst
}

func joinMayInto(dst, a, b setState) setState {
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
			// Equal blocks: the smaller packed value carries the smaller age.
			e := a[i]
			if b[j] < e {
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

// Result holds the outcome of the fixpoint: the exit state of every
// expanded block (the in-state is derived from them on demand, see InState)
// and the classification of every expanded reference. The effectiveness of
// a prefetch is read from its block's transfer row (see Effective).
type Result struct {
	X   *vivu.Prog
	Cfg cache.Config
	// Class[xb][i] classifies the i-th instruction fetch of expanded
	// block xb.
	Class [][]Classification
	// Changed[xb] reports whether block xb's transfer row or in-state value
	// differs from the previous result's, i.e. whether anything derived
	// from the block could differ. It is nil after a full analysis (every
	// block counts as changed) and set by a seeded AnalyzeChain, so downstream
	// consumers (the WCET assembly) can reuse per-block derivatives of
	// unchanged blocks.
	Changed []bool

	lambda int
	// gated marks a level behind the L1 (an AnalyzeL2 result): its rows
	// carry the L1 classification as the CAC gate.
	gated bool
	// ops[xb] is the transfer-function encoding of expanded block xb; the
	// incremental path diffs it against the previous result to find the
	// dirty region. Rows of unchanged blocks alias the previous result's
	// and are never written: a flipped effectiveness bit copies the row.
	ops [][]opRec
	// rows and classRows are the slabs holding the transfer and
	// classification rows this result built (every other row aliases the
	// result it was seeded from); Release gives them back to the chain.
	rows      []opRec
	classRows []Classification
	// out[xb] is the abstract state at the exit of xb (nil = bottom, the
	// block was never reached); it seeds incremental re-analysis.
	out []*State
	// own lists the blocks whose exit states this result owns — the ones
	// Release and Retire may recycle: the states its own call created and
	// kept, plus those it took over from the result it superseded (see
	// Retire). Seeded pointers and the previous states a cyclic component
	// got back through the value cutoff stay with the results they came
	// from until those retire.
	own []int32
	// lay is the ID of the layout the result was computed against, and
	// from the layout ID of the result it was seeded from (0 after a full
	// analysis): a layout derived from lay tells the next re-analysis which
	// transfer rows can differ.
	lay, from uint64
	// sccs is the fixpoint iteration plan; it depends only on the graph
	// structure and is shared across incremental re-analyses.
	sccs *sccPlan
	// scr carries the reusable analysis buffers along the chain of
	// incremental re-analyses seeded from this result.
	scr *scratch
}

// HasAlwaysMiss reports whether r's verdicts include AlwaysMiss: false for
// a chain started without the may component (see AnalyzeChain), whose
// would-be AlwaysMiss verdicts read NotClassified. Every re-analysis seeded
// from r answers the same.
func (r *Result) HasAlwaysMiss() bool { return !r.scr.sp.noAM }

// Effective reports whether instruction i of expanded block xb is a
// prefetch filling this level whose fill latency is provably hidden before
// the first use of the target block (Definition 10, checked with the
// conservative one-cycle-per-instruction lower bound).
func (r *Result) Effective(xb, i int) bool { return r.ops[xb][i].eff }

// opRec is one instruction of a transfer function at one cache level: the
// memory block the fetch accesses, the CAC gate deciding whether the fetch
// reaches this level (see hier.go), and, for prefetches, the target block
// and the fill effect. Two blocks with equal opRec rows have identical
// transfer functions and identical classification behavior for equal
// in-states.
type opRec struct {
	acc uint64
	tgt uint64
	cac cacClass // does the fetch reach this level? Always at the L1
	pft bool     // a prefetch whose fill passes through this level
	// fills marks a prefetch that targets this level, the only kind that
	// may be effective here.
	fills bool
	eff   bool // fills, and the fill latency is provably hidden
}

type analyzer struct {
	x   *vivu.Prog
	cfg cache.Config
	res *Result
	ops [][]opRec
	sp  *statePool
	ctx context.Context
	chk *interrupt.Checker

	// Fixpoint slots. out[id] is the current exit state of block id (nil =
	// bottom); ownOut marks states created by this call (recyclable through
	// the pool — states seeded from a previous Result are shared and must
	// never be recycled). outChanged records, for the incremental path,
	// whether a block's exit state ended up different from the previous
	// solution's.
	out        []*State
	ownOut     []bool
	dirty      []bool
	outChanged []bool
	// cls[id] is the classification row block id's latest transfer
	// recorded, valid only where classed[id]; both live in the chain's
	// scratch.
	cls     [][]Classification
	classed []bool
	// rounds counts cyclic-component convergence rounds, for tracing.
	rounds int
	// scrA/scrB ping-pong through multi-predecessor joins; empty is the
	// cold-cache entry state.
	scrA, scrB, empty *State
	// maybe holds the save and join buffers of the set-local Uncertain
	// access (see maybeBuf).
	maybe *maybeBuf
	// mask and base scope a re-analysis to the cache sets an edit reaches
	// (see setMask): joins, transfers and the value cutoff touch only the
	// sets of mask, and a block's every other set comes from its exit state
	// base[id] in the result the call was seeded from. Both are nil when
	// every set is re-solved.
	mask *setMask
	base []*State
	// stash is solve's buffer for a cyclic component's seeded states.
	stash []*State
}

// checkInterval is how many fixpoint steps pass between context polls: the
// amortized cancellation check costs a counter increment on the hot path and
// still reacts to cancellation within a few microseconds of work.
const checkInterval = 256

// Analyze runs the must/may fixpoint for the expanded program x laid out by
// lay on cache configuration cfg, with a prefetch latency of lambda cycles.
// Cancelling ctx aborts the fixpoint cooperatively: the call returns a typed
// interrupt error (interrupt.ErrCanceled / interrupt.ErrDeadline) and no
// Result. It starts an L1 chain with the AlwaysMiss demand set (see
// AnalyzeChain), as AnalyzeL2 does behind it.
func Analyze(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int) (*Result, error) {
	return analyze(ctx, x, lay, cfg, lambda, nil, nil, true)
}

// AnalyzeChain is the one chain entry of every cache level: the L1 when l1
// is nil, otherwise the level behind it, gated by the L1 result l1 (cfg is
// then the L2's configuration). am says whether a consumer of the chain
// reads AlwaysMiss verdicts. Without that demand the chain drops the may
// component wherever the policy's transfer does not need it (LRU and
// PLRU); every AlwaysMiss verdict then reads NotClassified, and every other
// verdict, every exit state's must and persistence components, and so
// every WCET price stay as they are (DESIGN.md §9).
//
// A nil prev starts a chain with a full analysis. Otherwise prev is the
// result of the same level for an earlier version of the program, mutated
// in place since (the expansion is structural, so instruction edits keep
// it valid): the call re-solves only what the mutation changed (see
// incremental.go) and yields a Result bit-identical to a full analysis.
// A prev of another expansion, configuration, λ, level or demand, or one
// whose layout started at a different block (the saturated persistence
// bits are numbered from the chain's first block), is not seeded from: the
// call runs a full analysis instead. An aborted call (canceled ctx) returns
// a typed interrupt error and leaves prev fully usable for a later retry.
// An L2 call refuses an l1 without AlwaysMiss verdicts (see
// Result.HasAlwaysMiss) with an error.
func AnalyzeChain(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int, l1, prev *Result, am bool) (*Result, error) {
	return analyze(ctx, x, lay, cfg, lambda, l1, prev, am)
}

// transferInto pushes src through the instruction sequence of expanded block
// p into dst, classifying every fetch against the state it meets. The row
// goes into the scratch buffer cls[p]; the row a block's last transfer
// recorded is its final classification (see solve).
//
// Under a set mask, dst starts as the block's seeded exit state with the
// masked sets taken from src (from src alone for a block the seed never
// reached, which edits do not change), and only the events on masked sets
// are applied; a fetch of an unmasked set gets a placeholder verdict, which
// the caller replaces by the seed's (see scratch.fillVerdicts).
func (a *analyzer) transferInto(dst, src *State, p int) {
	if a.mask != nil && a.base[p] != nil {
		dst.copyFrom(a.base[p])
		dst.overlay(src, a.mask)
	} else {
		dst.copyFrom(src)
	}
	ctx := a.x.Blocks[p].Ctx
	inRest := len(ctx) > 0 && ctx[len(ctx)-1] == 'R'
	cls := a.cls[p][:0]
	for _, op := range a.ops[p] {
		if a.mask != nil && !a.mask.on[dst.setOf(op.acc)] {
			cls = append(cls, NotClassified)
			op.cac = cacNever // its set keeps the seed's value
			a.apply(dst, op)
			continue
		}
		cl := dst.Classify(op.acc)
		// Persistence upgrade (first-miss classification): a
		// not-classified reference in an other-iterations context whose
		// block can never have been evicted since its load pays its one
		// miss in the first-iteration context; here it is a hit.
		if cl == NotClassified && inRest && dst.Persistent(op.acc) {
			cl = FirstMiss
		}
		cls = append(cls, cl)
		a.apply(dst, op)
	}
	a.cls[p] = cls
	a.classed[p] = true
}

// apply pushes one instruction through st: the fetch under its CAC gate —
// Always is the plain update, Never leaves the state untouched, Uncertain
// joins the applied and skipped branches of the accessed set (see
// maybeBuf.accessMaybe) — then the prefetch fill, if it passes through this
// level, with its computed effectiveness. A fill that passes through
// without targeting this level lands at an unknown time, which the
// non-effective fill soundly over-approximates (it also covers the fill not
// happening at all — a redundant prefetch). Under a set mask a fill of an
// unmasked set is skipped: that set keeps the seed's value.
func (a *analyzer) apply(st *State, op opRec) {
	switch op.cac {
	case cacAlways:
		st.Access(op.acc)
	case cacUncertain:
		a.maybe.accessMaybe(st, op.acc)
	}
	if op.pft && (a.mask == nil || a.mask.on[st.setOf(op.tgt)]) {
		st.PrefetchFill(op.tgt, op.eff)
	}
}

// maybeBuf holds the buffers of the Uncertain access: the accessed set's
// must, may and young persistence entries and the saturated bitset as they
// were before the access, and the join output. It lives in the chain's
// scratch, so a steady-state re-analysis allocates nothing for it.
type maybeBuf struct {
	must, may, pers, join setState
	sat                   []uint64
}

// accessMaybe applies an access to blk that may or may not happen: the join of
// the accessed and the untouched state (Hardy & Puaut's Uncertain update).
// Access changes only blk's cache set, and joining an untouched set with
// itself gives the same set, so only that set is joined: its saved entries
// with the accessed ones, and the saved saturated bits ORed back in (the
// bits of other sets are the same on both sides). The young persistence
// join runs against the ORed bitset, so a bound saturated on either branch
// stays saturated.
func (b *maybeBuf) accessMaybe(st *State, blk uint64) {
	k := st.spanOf(blk)
	b.must = append(b.must[:0], st.view(k+cMust)...)
	b.may = append(b.may[:0], st.view(k+cMay)...)
	b.pers = append(b.pers[:0], st.view(k+cPers)...)
	b.sat = append(b.sat[:0], st.sat...)
	st.Access(blk)

	// Access never shrinks the bitset, so every saved word has a slot.
	for i, w := range b.sat {
		if d := w &^ st.sat[i]; d != 0 {
			st.sat[i] |= d
			st.nSat += int32(bits.OnesCount64(d))
		}
	}
	b.join = joinMustInto(b.join[:0], b.must, st.view(k+cMust))
	st.nMust += st.store(k+cMust, b.join)
	b.join = joinMayInto(b.join[:0], b.may, st.view(k+cMay))
	st.nMay += st.store(k+cMay, b.join)
	b.join = joinPersInto(&st.satSet, b.join[:0], b.pers, st.view(k+cPers))
	st.nPers += st.store(k+cPers, b.join)
}

// joinPreds returns the join of the predecessors' exit states of block id —
// the in-state the transfer function is applied to. The returned state may
// alias a predecessor's out slot (single live predecessor) or one of the
// scratch states; it is only valid until the next joinPreds call. nil means
// bottom: no predecessor has produced a state yet. Under a set mask a
// joined state holds the masked sets only.
func (a *analyzer) joinPreds(id int) *State {
	if id == a.x.Entry {
		return a.empty
	}
	var st *State
	scr := a.scrA
	for _, p := range a.x.Blocks[id].Preds {
		o := a.out[p]
		if o == nil {
			continue
		}
		if st == nil {
			st = o
			continue
		}
		scr.joinInto(st, o, a.mask)
		st = scr
		if scr == a.scrA {
			scr = a.scrB
		} else {
			scr = a.scrA
		}
	}
	return st
}

// processBlock recomputes one block's equation: join the predecessors,
// apply the transfer function, and publish the new exit state when it
// differs (marking the successors dirty). Reports whether the exit state
// changed. When the recomputed state equals the current one the tentative
// state is recycled and nothing propagates — this is the value cutoff that
// keeps incremental re-analysis local. Under a set mask the cutoff compares
// the masked sets only: every other set is the seed's on both sides.
func (a *analyzer) processBlock(id int) bool {
	a.dirty[id] = false
	st := a.joinPreds(id)
	if st == nil {
		// No predecessor state yet: the first predecessor to produce one
		// re-marks this block dirty.
		return false
	}
	tmp := a.sp.get()
	a.transferInto(tmp, st, id)
	if a.out[id] != nil && a.out[id].equalIn(tmp, a.mask) {
		a.sp.put(tmp)
		return false
	}
	if a.ownOut[id] {
		a.sp.put(a.out[id])
	}
	a.out[id] = tmp
	a.ownOut[id] = true
	for _, e := range a.x.Blocks[id].Succs {
		a.dirty[e.To] = true
	}
	return true
}

// solve runs the fixpoint over the components of the plan (see sccPlan) in
// topological order. When a component is reached, every predecessor
// outside it already holds its final (least fixpoint) value, so:
//
//   - an acyclic (singleton) component is solved by a single transfer —
//     and if the result equals the seeded previous value, nothing
//     propagates;
//   - a cyclic component with a dirty member restarts from bottom as a
//     whole and iterates to convergence, which is the least fixpoint of the
//     subsystem under its (final) external inputs; members whose converged
//     state equals the previous solution get their previous state pointer
//     restored, so sharing across chained results is preserved.
//
// Components with no dirty member are skipped entirely: their equations and
// inputs are unchanged, so the seeded previous values are already final.
//
// The classification row each transfer records (see transferInto) is final
// once the solve ends: every publish of a new exit state marks the
// successors dirty, so a block is transferred again whenever one of its
// predecessors changes after its last transfer — an acyclic block's
// predecessors are final before it is reached, and a cyclic component does
// not converge while a member is dirty. A block's last transfer therefore
// saw its predecessors' final exit states.
//
// The fixpoint is interruptible: the amortized checker is polled once per
// component and once per cyclic convergence round, so a canceled context
// unwinds the solve within one round. An aborted solve leaves the seed
// result (prev) untouched — this call neither mutates nor recycles a seeded
// state; only prev's own Retire or Release does — so the caller's previous
// Result stays valid for a later retry. The solved states keep the room the
// in-place updates needed; a full analysis compacts its own afterwards.
func (a *analyzer) solve(plan *sccPlan) error {
	for ci, comp := range plan.comps {
		if err := a.chk.Check(); err != nil {
			return err
		}
		if !plan.cyclic[ci] {
			id := comp[0]
			if a.dirty[id] && a.processBlock(id) {
				a.outChanged[id] = true
			}
			continue
		}
		hasDirty := false
		for _, id := range comp {
			if a.dirty[id] {
				hasDirty = true
				break
			}
		}
		if !hasDirty {
			continue
		}
		// Restart the whole component from bottom. Continuing from seeded
		// (previous-solution) states would not be monotone from below and
		// could overshoot the least fixpoint.
		a.stash = a.stash[:0]
		for _, id := range comp {
			a.stash = append(a.stash, a.out[id])
			a.out[id] = nil
			a.ownOut[id] = false // seeds are shared; new states re-mark themselves
			a.dirty[id] = true
		}
		for changed := true; changed; {
			a.rounds++
			if err := a.chk.Check(); err != nil {
				return err
			}
			if err := faults.Fire(a.ctx, "absint.round", ""); err != nil {
				return err
			}
			changed = false
			for _, id := range comp {
				if a.dirty[id] && a.processBlock(id) {
					changed = true
				}
			}
		}
		for k, id := range comp {
			prev := a.stash[k]
			switch {
			case prev == nil:
				a.outChanged[id] = a.out[id] != nil
			case a.out[id] != nil && a.out[id].equalIn(prev, a.mask):
				// Same value: restore the previous pointer and recycle the
				// recomputed state (downstream consumers keep sharing).
				if a.ownOut[id] {
					a.sp.put(a.out[id])
				}
				a.out[id] = prev
				a.ownOut[id] = false
			default:
				a.outChanged[id] = true
			}
		}
	}
	return nil
}
