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
// Besides the from-scratch Analyze, the package offers AnalyzeFrom, an
// incremental re-analysis seeded from a previous Result (see
// incremental.go): only the blocks whose transfer function actually changed
// — and the region reachable from them — are re-solved, which is what makes
// the optimizer's validate-and-commit loop affordable.
package absint

import (
	"context"
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
	// AlwaysMiss: the may analysis guarantees the block is absent.
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

// setState is the abstract state of a single cache set: blocks paired with
// age bounds (upper bounds in must states, lower bounds in may states),
// sorted by block for canonical comparison.
type setState []entry

// smallSetScan is the length up to which find and insert use a linear scan
// instead of a binary search. Every Table 2 configuration has assoc ≤ 4, so
// must and may sets never exceed four entries and always take the scan path;
// only persistence sets (which track every block ever seen) can grow past
// it.
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

// fnv-1a over the entries; used for the State hash and set interning.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s setState) hash() uint64 {
	h := uint64(fnvOffset)
	for _, e := range s {
		h = (h ^ uint64(e)) * fnvPrime
	}
	return h
}

// State is an abstract cache state: a must, a may, and a persistence
// component per set. The persistence component tracks, for every block ever
// loaded, an upper bound on its maximal LRU age since that load; a block
// whose bound stays below the associativity can never have been evicted
// (ages are capped at the associativity, the "maybe evicted" top element).
type State struct {
	cfg  cache.Config
	tr   policyTransfer // transfer functions for cfg.Policy (see policy.go)
	must []setState
	may  []setState
	pers []setState
	// nMust/nMay/nPers cache the total entry count per component so Equal
	// rejects differing states in O(1) — the dominant outcome inside the
	// fixpoint.
	nMust, nMay, nPers int32
	// hash caches the structural hash; valid only while hashOK. Mutators
	// clear it, interning (see incremental.go) sets it, and Equal uses a
	// mismatch of two valid hashes as a second O(1) early exit.
	hash   uint64
	hashOK bool
	// buf is the backing array the per-set slices are carved from; pooled
	// states reuse it across fixpoint rounds instead of reallocating.
	buf []entry
}

// NewState returns the abstract state of an empty cache: nothing is
// guaranteed resident (must = ∅) and nothing may be resident (may = ∅), the
// cold-start state ĉ_I.
func NewState(cfg cache.Config) *State {
	n := cfg.NumSets()
	// One header array backs all three components, so a fresh state costs
	// two allocations instead of four.
	h := make([]setState, 3*n)
	return &State{
		cfg:  cfg,
		tr:   transferFor(cfg),
		must: h[0:n:n],
		may:  h[n : 2*n : 2*n],
		pers: h[2*n:],
	}
}

// cloneHeadroom is the spare capacity carved per set so the following
// transfer's insertions rarely reallocate.
const cloneHeadroom = 2

// copyFrom makes s an exact copy of src, reusing s's backing buffer when it
// is large enough. s and src must share a configuration.
func (s *State) copyFrom(src *State) {
	n := len(src.must)
	total := 0
	for i := 0; i < n; i++ {
		total += len(src.must[i]) + len(src.may[i]) + len(src.pers[i]) + 3*cloneHeadroom
	}
	if cap(s.buf) < total {
		s.buf = make([]entry, total)
	}
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
	s.nMust, s.nMay, s.nPers = src.nMust, src.nMay, src.nPers
	s.hash, s.hashOK = src.hash, src.hashOK
}

// copyCompact makes s an exact-size copy of src, with no growth headroom:
// the copy for states that are retained but never mutated again (the
// recorded in-states of a result).
func (s *State) copyCompact(src *State) {
	n := len(src.must)
	total := int(src.nMust + src.nMay + src.nPers)
	if cap(s.buf) < total {
		s.buf = make([]entry, total)
	}
	buf := s.buf[:cap(s.buf)]
	off := 0
	carve := func(from setState) setState {
		l := len(from)
		dst := buf[off : off+l : off+l]
		copy(dst, from)
		off += l
		return dst
	}
	for i := 0; i < n; i++ {
		s.must[i] = carve(src.must[i])
		s.may[i] = carve(src.may[i])
		s.pers[i] = carve(src.pers[i])
	}
	s.nMust, s.nMay, s.nPers = src.nMust, src.nMay, src.nPers
	s.hash, s.hashOK = src.hash, src.hashOK
}

// Clone deep-copies the state. All per-set slices are carved out of one
// backing array (with spare slots per set, so the following transfer's
// insertions rarely reallocate); this keeps the fixpoint from drowning in
// small allocations.
func (s *State) Clone() *State {
	c := NewState(s.cfg)
	c.copyFrom(s)
	return c
}

// Equal reports whether two states are identical. The cached entry counts
// and (when both are valid) the cached hashes reject unequal states without
// walking the sets.
func (s *State) Equal(o *State) bool {
	if s == o {
		return true
	}
	if s.cfg != o.cfg || s.nMust != o.nMust || s.nMay != o.nMay || s.nPers != o.nPers {
		return false
	}
	if s.hashOK && o.hashOK && s.hash != o.hash {
		return false
	}
	for i := range s.must {
		if !s.must[i].equal(o.must[i]) {
			return false
		}
	}
	for i := range s.may {
		if !s.may[i].equal(o.may[i]) {
			return false
		}
	}
	for i := range s.pers {
		if !s.pers[i].equal(o.pers[i]) {
			return false
		}
	}
	return true
}

// MustContains reports whether blk is guaranteed resident.
func (s *State) MustContains(blk uint64) bool {
	return s.must[s.cfg.SetOf(blk)].find(blk) >= 0
}

// MayContains reports whether blk may be resident.
func (s *State) MayContains(blk uint64) bool {
	return s.may[s.cfg.SetOf(blk)].find(blk) >= 0
}

// Persistent reports whether blk, if it was ever loaded, is guaranteed not
// to have been evicted since (its persistence age bound is below the
// policy's persistence horizon — the associativity for LRU and FIFO, the
// log2(a)+1 virtual associativity for tree-PLRU).
func (s *State) Persistent(blk uint64) bool {
	set := s.pers[s.cfg.SetOf(blk)]
	if i := set.find(blk); i >= 0 {
		return set[i].age() < s.tr.persLimit()
	}
	// Never loaded on any path reaching here: the access itself will be
	// the (single) first load.
	return true
}

// Classify returns the classification of an access to blk in this state.
func (s *State) Classify(blk uint64) Classification {
	if s.MustContains(blk) {
		return AlwaysHit
	}
	if !s.MayContains(blk) {
		return AlwaysMiss
	}
	return NotClassified
}

// Access applies the abstract update for a reference to blk to all
// components (the abstract update function Û) under the configured
// replacement policy.
func (s *State) Access(blk uint64) {
	si := s.cfg.SetOf(blk)
	m0, y0, p0 := len(s.must[si]), len(s.may[si]), len(s.pers[si])
	s.tr.access(s, si, blk)
	s.nMust += int32(len(s.must[si]) - m0)
	s.nMay += int32(len(s.may[si]) - y0)
	s.nPers += int32(len(s.pers[si]) - p0)
	s.hashOK = false
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
	si := s.cfg.SetOf(blk)
	m0, y0, p0 := len(s.must[si]), len(s.may[si]), len(s.pers[si])
	s.tr.fill(s, si, blk, effective)
	s.nMust += int32(len(s.must[si]) - m0)
	s.nMay += int32(len(s.may[si]) - y0)
	s.nPers += int32(len(s.pers[si]) - p0)
	s.hashOK = false
}

// mustUpdate is the must-analysis LRU update: the accessed block gets age 0;
// blocks younger than its previous upper-bound age grow older by one; blocks
// aged past the associativity are no longer guaranteed. The input slice is
// updated in place (callers own their states).
func mustUpdate(s setState, m uint64, assoc uint8) setState {
	prev := assoc // treat "not guaranteed" as the oldest possible age
	if i := s.find(m); i >= 0 {
		prev = s[i].age()
		s = s.remove(i)
	}
	w := 0
	for _, e := range s {
		if e.age() < prev {
			e++ // ages live in the low bits, so +1 ages the entry
		}
		if e.age() < assoc {
			s[w] = e
			w++
		}
	}
	return s[:w].insert(m, 0)
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
// resets to zero; younger blocks age by one, capped at the associativity
// (the "maybe evicted" marker) but never removed — once a block has been
// seen, the analysis keeps tracking whether it could have been evicted.
func persUpdate(s setState, m uint64, assoc uint8) setState {
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

// persAgeAll ages every tracked bound (a fill at an unknown time).
func persAgeAll(s setState, assoc uint8) setState {
	for i := range s {
		if s[i].age() < assoc {
			s[i]++
		}
	}
	return s
}

// joinPersInto merges persistence states (union with maximal age bounds)
// by appending to dst, which the caller sizes to len(a)+len(b).
func joinPersInto(dst, a, b setState) setState {
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
			// Equal blocks: the larger packed value carries the larger age.
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

// mayUpdate is the may-analysis LRU update: the accessed block gets age 0;
// blocks whose lower-bound age does not exceed its previous lower bound grow
// older by one; blocks aged past the associativity cannot be resident.
func mayUpdate(s setState, m uint64, assoc uint8) setState {
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

// joinInto sets s to the join of a and b (which must not be s), reusing s's
// backing buffer: the must component intersects (keeping maximal ages) and
// the may component unites (keeping minimal ages) — the classical join
// functions of [8] — without allocating per set.
func (s *State) joinInto(a, b *State) {
	n := len(a.must)
	total := 0
	for i := 0; i < n; i++ {
		total += min(len(a.must[i]), len(b.must[i])) +
			len(a.may[i]) + len(b.may[i]) +
			len(a.pers[i]) + len(b.pers[i])
	}
	if cap(s.buf) < total {
		s.buf = make([]entry, total)
	}
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
		dst = joinPersInto(buf[off:off:off+bound], a.pers[i], b.pers[i])
		s.pers[i] = dst
		np += int32(len(dst))
		off += bound
	}
	s.nMust, s.nMay, s.nPers = nm, ny, np
	s.hashOK = false
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

// Result holds the outcome of the fixpoint: the in-state of every expanded
// block and the classification of every expanded reference.
type Result struct {
	X   *vivu.Prog
	Cfg cache.Config
	// In[xb] is the abstract state on entry to expanded block xb.
	In []*State
	// Class[xb][i] classifies the i-th instruction fetch of expanded
	// block xb.
	Class [][]Classification
	// Effective[xb][i] is meaningful for prefetch instructions: whether
	// the fill latency is provably hidden before the first use of the
	// target block (Definition 10, checked with the conservative
	// one-cycle-per-instruction lower bound).
	Effective [][]bool
	// Changed[xb] reports whether block xb's transfer row or in-state value
	// differs from the previous result's, i.e. whether anything derived
	// from the block could differ. It is nil after a full analysis (every
	// block counts as changed) and set by AnalyzeFrom, so downstream
	// consumers (the WCET assembly) can reuse per-block derivatives of
	// unchanged blocks.
	Changed []bool

	lambda int
	// gated marks a level behind the L1 (an AnalyzeL2 result): its rows
	// carry the L1 classification as the CAC gate.
	gated bool
	// ops[xb] is the transfer-function encoding of expanded block xb; the
	// incremental path diffs it against the previous result to find the
	// dirty region. Rows of unchanged blocks alias the previous result's.
	ops [][]opRec
	// out[xb] is the abstract state at the exit of xb (nil = bottom, the
	// block was never reached); it seeds incremental re-analysis.
	out []*State
	// sccs is the fixpoint iteration plan; it depends only on the graph
	// structure and is shared across incremental re-analyses.
	sccs *sccPlan
	// scr carries the reusable analysis buffers along the chain of
	// incremental re-analyses seeded from this result.
	scr *scratch
	// interns is the hash-consing table canonical set states live in. It is
	// populated lazily by Intern — interning every converged state would
	// burden the analysis hot path, so only results a caller retains
	// long-term (e.g. a result cache) pay for the deduplication.
	interns *internTable
}

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
	// rounds counts cyclic-component convergence rounds, for tracing.
	rounds int
	// scrA/scrB ping-pong through multi-predecessor joins; tmp/jn serve the
	// Uncertain join inside one instruction; empty is the cold-cache entry
	// state.
	scrA, scrB, tmp, jn, empty *State
}

// checkInterval is how many fixpoint steps pass between context polls: the
// amortized cancellation check costs a counter increment on the hot path and
// still reacts to cancellation within a few microseconds of work.
const checkInterval = 256

// Analyze runs the must/may fixpoint for the expanded program x laid out by
// lay on cache configuration cfg, with a prefetch latency of lambda cycles.
// Cancelling ctx aborts the fixpoint cooperatively: the call returns a typed
// interrupt error (interrupt.ErrCanceled / interrupt.ErrDeadline) and no
// Result.
func Analyze(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int) (*Result, error) {
	return analyze(ctx, x, lay, cfg, lambda, nil, nil)
}

// transferInto pushes src through the instruction sequence of expanded block
// p into dst.
func (a *analyzer) transferInto(dst, src *State, p int) {
	dst.copyFrom(src)
	for _, op := range a.ops[p] {
		a.apply(dst, op)
	}
}

// apply pushes one instruction through st: the fetch under its CAC gate —
// Always is the plain update, Never leaves the state untouched, Uncertain
// joins the applied and skipped branches — then the prefetch fill, if it
// passes through this level, with its computed effectiveness. A fill that
// passes through without targeting this level lands at an unknown time,
// which the non-effective fill soundly over-approximates (it also covers
// the fill not happening at all — a redundant prefetch).
func (a *analyzer) apply(st *State, op opRec) {
	switch op.cac {
	case cacAlways:
		st.Access(op.acc)
	case cacUncertain:
		a.tmp.copyFrom(st)
		a.tmp.Access(op.acc)
		a.jn.joinInto(st, a.tmp)
		st.copyFrom(a.jn)
	}
	if op.pft {
		st.PrefetchFill(op.tgt, op.eff)
	}
}

// joinPreds returns the join of the predecessors' exit states of block id —
// the in-state the transfer function is applied to. The returned state may
// alias a predecessor's out slot (single live predecessor) or one of the
// scratch states; it is only valid until the next joinPreds call. nil means
// bottom: no predecessor has produced a state yet.
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
		scr.joinInto(st, o)
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
// keeps incremental re-analysis local.
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
	if a.out[id] != nil && a.out[id].Equal(tmp) {
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

// solve runs the fixpoint over the strongly-connected components of the
// expanded graph in condensation topological order. When a component is
// reached, every predecessor outside it already holds its final (least
// fixpoint) value, so:
//
//   - an acyclic (singleton, no self edge) component is solved by a single
//     transfer — and if the result equals the seeded previous value, nothing
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
// The fixpoint is interruptible: the amortized checker is polled once per
// component and once per cyclic convergence round, so a canceled context
// unwinds the solve within one round. An aborted solve leaves the seed
// result (prev) untouched — seeded states are shared, never mutated, never
// recycled — so the caller's previous Result stays valid for a later retry.
func (a *analyzer) solve(plan *sccPlan) error {
	var stash []*State
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
		stash = stash[:0]
		for _, id := range comp {
			stash = append(stash, a.out[id])
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
			prev := stash[k]
			switch {
			case prev == nil:
				a.outChanged[id] = a.out[id] != nil
			case a.out[id] != nil && a.out[id].Equal(prev):
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

// classify records the in-state and the per-reference classification of
// expanded block id into the result.
func (a *analyzer) classify(id int, in *State, walk *State) {
	x := a.x
	xb := x.Blocks[id]
	res := a.res
	res.In[id] = in
	walk.copyFrom(in)
	row := a.ops[id]
	cls := make([]Classification, len(row))
	inRest := len(xb.Ctx) > 0 && xb.Ctx[len(xb.Ctx)-1] == 'R'
	for i, op := range row {
		cl := walk.Classify(op.acc)
		// Persistence upgrade (first-miss classification): a
		// not-classified reference in an other-iterations context whose
		// block can never have been evicted since its load pays its one
		// miss in the first-iteration context; here it is a hit.
		if cl == NotClassified && inRest && walk.Persistent(op.acc) {
			cl = FirstMiss
		}
		cls[i] = cl
		a.apply(walk, op)
	}
	res.Class[id] = cls
}
