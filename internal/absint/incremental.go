package absint

import (
	"context"
	"errors"

	"ucp/internal/cache"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/obs"
	"ucp/internal/vivu"
)

// This file implements the incremental re-analysis entry point and the
// machinery the shared fixpoint needs to stay allocation-light: a state pool
// that travels with the chain of results, compaction of the converged states
// of retained results, and a flat-array replacement for the map-based
// effectiveness BFS.
//
// Soundness of the incremental restart (see DESIGN.md for the long form):
// the dirty set D is the set of expanded blocks whose transfer function
// changed (different opRec row — fetched blocks, CAC gates, prefetch
// flags, targets, or effectiveness). The rule is the same at every level:
// an L2 row also changes when the L1 verdict gating one of its fetches
// moved, so a re-classification at L1 dirties exactly the L2 blocks it
// reaches. Every slot is seeded with the previous solution and
// the fixpoint walks the components of the plan — blocks outside every
// loop region, and whole outermost regions — in topological order (see
// sccPlan in scc.go and solve in absint.go). By induction
// over that order, when a component is reached its external inputs are
// final: a clean component (no dirty member, no input change propagated
// into it) keeps its previous values, which are exactly the new least-
// fixpoint values since neither its equations nor its inputs changed; a
// dirty acyclic block is solved by one transfer; a dirty cyclic component
// restarts from bottom as a whole and iterates to its subsystem's least
// fixpoint. Recomputing a block whose exit state comes out equal to the
// previous value propagates nothing (value cutoff), so the recomputed
// region is the set of blocks whose solution *actually* changed — typically
// far smaller than the structural forward closure of D. (Seeding a cyclic
// component with its previous values instead of bottom would only be sound
// for a post-fixpoint *upper* iteration and could overshoot the least
// fixpoint; the reset is what makes the result bit-identical, which the
// differential tests in internal/wcet pin down.)
//
// The re-solve is also scoped in space (see setscope.go): the dirty rows
// name the cache sets whose per-set event sequences changed, and only
// those sets are joined, transferred, compared and classified. Every other
// set of a recomputed exit state is copied from the seed's exit state of
// the same block, and its fetches take the seed's verdicts. Without a mask
// (a full analysis, or an edit that reaches more than half the sets, the
// measured cutoff of scopeSets) the solve takes the whole-state path.

// AnalyzeFrom re-runs the analysis after a program mutation, reusing prev
// wherever the transfer functions did not change. It yields a Result
// bit-identical to Analyze on the mutated program. prev must come from an
// Analyze/AnalyzeFrom call on the same expanded program (the expansion is
// structural, so in-place instruction edits keep it valid); when prev is
// nil or incompatible — including a prev whose layout started at a different
// block, since the saturated persistence bits are numbered from the chain's
// first block — the call degrades to a full analysis. The re-analysis
// keeps prev's AlwaysMiss demand (see AnalyzeChain): a chain never mixes
// states with and without the may component. An aborted call
// (canceled ctx) returns a typed interrupt error and leaves prev fully
// usable for a later retry.
func AnalyzeFrom(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int, prev *Result) (*Result, error) {
	am := prev == nil || prev.HasAlwaysMiss()
	if prev == nil || prev.X != x || prev.Cfg != cfg || prev.lambda != lambda || prev.gated {
		prev = nil
	}
	return analyze(ctx, x, lay, cfg, lambda, nil, prev, am)
}

// analyze is the one fixpoint behind every level: Analyze and AnalyzeFrom
// run it for the L1 (l1 == nil, every access Always), AnalyzeL2 and
// AnalyzeL2From for the L2 gated by the L1 result l1. prev == nil means a
// full analysis; am is the AlwaysMiss demand (see AnalyzeChain), and a prev
// whose chain answers it differently is not seeded from.
func analyze(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int, l1, prev *Result, am bool) (*Result, error) {
	if l1 != nil && !l1.HasAlwaysMiss() {
		return nil, errors.New("absint: the L2 access gate reads L1 AlwaysMiss verdicts, and the L1 result was computed without them")
	}
	// The amortized checker only polls every checkInterval steps, which a
	// small (or fully clean incremental) analysis may never reach; the
	// upfront check guarantees an already-dead context is always honored.
	if err := interrupt.Cause(ctx); err != nil {
		return nil, err
	}
	spanName := "absint.solve"
	if l1 != nil {
		spanName = "absint.solve_l2"
	}
	ctx, span := obs.Start(ctx, spanName)
	defer span.End()
	n := len(x.Blocks)
	res := &Result{
		X:      x,
		Cfg:    cfg,
		Class:  make([][]Classification, n),
		lambda: lambda,
		gated:  l1 != nil,
		out:    make([]*State, n),
	}
	satLo := lay.StartAddr() / uint64(cfg.BlockBytes)
	noAM := !am && !keepsMay(cfg)
	if prev != nil && (prev.scr.sp.satLo != satLo || prev.scr.sp.noAM != noAM) {
		// The seed's states number their saturated bits differently, or
		// differ in having a may component.
		prev = nil
	}
	full := prev == nil
	var sc *scratch
	if !full {
		sc = prev.scr
	}
	if sc == nil {
		sc = newScratch(cfg, satLo, noAM)
	}
	res.scr = sc
	made := sc.sp.made // pool misses before this call, for the span
	a := &analyzer{
		x: x, cfg: cfg, res: res, sp: &sc.sp,
		ctx: ctx, chk: interrupt.NewChecker(ctx, checkInterval),
	}

	res.lay = lay.ID()
	if !full {
		res.from = prev.lay
	}

	// Build the per-block transfer rows. In the incremental case the program
	// was mutated in place, so the previous instructions are gone — the
	// previous result's opRec rows are the only diffable snapshot. Rows that
	// match byte for byte alias the previous row (keeping its effectiveness
	// bits); the rest are the base-dirty set. When lay was derived from
	// prev's layout, only the rows an edit can have reached are rebuilt and
	// diffed (see rowSources); every other row aliases prev's unexamined.
	ops := make([][]opRec, n)
	baseDirty := flags(&sc.baseDirty, n)
	rowBuf := sc.row
	var src []bool
	if !full && lay.DerivedFrom(prev.lay) && (l1 == nil || (l1.Changed != nil && l1.lay == res.lay && l1.from == prev.lay)) {
		src = rowSources(x.Prog, lay, &sc.src)
	}
	for _, xb := range x.Blocks {
		if src != nil && !src[xb.Orig] && (l1 == nil || !l1.Changed[xb.ID]) {
			ops[xb.ID] = prev.ops[xb.ID]
			continue
		}
		instrs := x.Prog.Blocks[xb.Orig].Instrs
		rowBuf = rowBuf[:0]
		for i, ins := range instrs {
			op := opRec{acc: lay.MemBlock(isa.InstrRef{Block: xb.Orig, Index: i}, cfg.BlockBytes)}
			if l1 != nil {
				op.cac = cacOf(l1.Class[xb.ID][i])
			}
			// A Level-2 prefetch fills the L2 only; any other prefetch fills
			// the L1 and passes through the L2 on its way.
			if ins.Kind == isa.KindPrefetch {
				op.fills = (ins.Level == 2) == (l1 != nil)
				op.pft = op.fills || l1 != nil
			}
			if op.pft {
				op.tgt = lay.MemBlock(ins.Target, cfg.BlockBytes)
			}
			rowBuf = append(rowBuf, op)
		}
		if !full && rowBaseEqual(rowBuf, prev.ops[xb.ID]) {
			ops[xb.ID] = prev.ops[xb.ID]
		} else {
			ops[xb.ID] = append(make([]opRec, 0, len(rowBuf)), rowBuf...)
			baseDirty[xb.ID] = true
		}
	}
	sc.row = rowBuf
	a.ops = ops
	res.ops = ops

	// Prefetch effectiveness (latency hiding, Definition 10). The BFS for a
	// prefetch only inspects instructions within lambda fetches of it, so
	// its verdict can only change when a base-dirty block lies inside that
	// horizon; effScope over-approximates the set of blocks whose prefetches
	// need recomputing. Everything else keeps its previous bits.
	ec := newEffCalc(x, ops, sc.ec)
	sc.ec = ec
	dirty := flags(&sc.dirty, n)
	copy(dirty, baseDirty)
	if full {
		for id := range ops {
			row := ops[id]
			for i := range row {
				if row[i].fills {
					row[i].eff = ec.hidden(id, i, row[i].tgt, lambda)
				}
			}
		}
	} else {
		scope := effScope(x, ops, baseDirty, lambda, sc)
		for id, inScope := range scope {
			if !inScope {
				continue
			}
			row := ops[id]
			if baseDirty[id] {
				for i := range row {
					if row[i].fills {
						row[i].eff = ec.hidden(id, i, row[i].tgt, lambda)
					}
				}
				continue
			}
			// Row aliases the previous result: copy-on-write, and only if a
			// bit actually flips does the block become dirty.
			var fresh []opRec
			for i, op := range row {
				if !op.fills {
					continue
				}
				if e := ec.hidden(id, i, op.tgt, lambda); e != op.eff {
					if fresh == nil {
						fresh = append(make([]opRec, 0, len(row)), row...)
					}
					fresh[i].eff = e
				}
			}
			if fresh != nil {
				ops[id] = fresh
				dirty[id] = true
			}
		}
	}

	if full {
		res.sccs = buildSCCPlan(x)
	} else {
		res.sccs = prev.sccs
	}

	// rowDirty snapshots the transfer-row changes before solve consumes the
	// dirty flags as its worklist; the rows that changed name the cache sets
	// the solve re-solves (see setMask).
	var rowDirty []bool
	if !full {
		rowDirty = flags(&sc.rowDirty, n)
		copy(rowDirty, dirty)
		if a.mask = sc.scopeSets(prev.ops, ops, rowDirty); a.mask != nil {
			a.base = prev.out
		}
	}

	// Seed the fixpoint with the previous solution (bottom on a cold start)
	// and solve. Only blocks the value cutoff lets the dirtiness reach are
	// recomputed.
	a.out = res.out
	a.ownOut = flags(&sc.ownOut, n)
	a.dirty = dirty
	a.outChanged = flags(&sc.outChanged, n)
	if span != nil {
		nd := 0
		for _, d := range dirty {
			if d {
				nd++
			}
		}
		span.Attr("incremental", !full)
		span.Attr("blocks", n)
		span.Attr("dirty_blocks", nd)
		if a.mask != nil {
			span.Attr("mask_sets", len(a.mask.list))
		} else {
			span.Attr("mask_sets", cfg.NumSets())
		}
	}
	if !full {
		copy(a.out, prev.out)
	}
	if len(sc.cls) != n { // a chain analyzes one expanded program
		sc.cls = make([][]Classification, n)
	}
	a.cls = sc.cls
	a.classed = flags(&sc.classed, n)
	a.maybe = &sc.maybe
	a.scrA, a.scrB = a.sp.get(), a.sp.get()
	defer func() {
		a.sp.put(a.scrA)
		a.sp.put(a.scrB)
	}()
	a.empty = sc.empty
	if err := a.solve(res.sccs); err != nil {
		return nil, err
	}
	for id, own := range a.ownOut {
		if own {
			res.own = append(res.own, int32(id))
		}
	}

	// A block needs re-classification iff its transfer row changed or some
	// predecessor's exit state changed (its in-state value moved); everything
	// else aliases the previous result — same in-state value, same transfer
	// row, hence the same classifications.
	if !full {
		changed := make([]bool, n)
		for id := range changed {
			if rowDirty[id] {
				changed[id] = true
				continue
			}
			for _, p := range x.Blocks[id].Preds {
				if a.outChanged[p] {
					changed[id] = true
					break
				}
			}
		}
		res.Changed = changed
	}
	// Every changed block takes the row its last transfer in the fixpoint
	// recorded. A block the solve never transferred has no predecessor
	// state — it is unreachable, and edits never change reachability — so
	// it is classified against the cold-cache state, like the entry. Under
	// a set mask, the fetches on the other sets take the seed's verdicts.
	for id := range ops {
		if !full && !res.Changed[id] {
			res.Class[id] = prev.Class[id]
			continue
		}
		if !a.classed[id] {
			a.transferInto(a.scrA, a.empty, id)
		}
		res.Class[id] = append([]Classification(nil), a.cls[id]...)
		if a.mask != nil {
			sc.fillVerdicts(a.mask, res.Class[id], ops[id], prev.ops[id], prev.Class[id], !rowDirty[id])
		}
	}
	if span != nil {
		span.Attr("rounds", a.rounds)
		span.Attr("states_pooled", len(sc.sp.free))
		span.Attr("states_new", sc.sp.made-made)
		if res.Changed != nil {
			nc := 0
			for _, c := range res.Changed {
				if c {
					nc++
				}
			}
			span.Attr("changed_blocks", nc)
		}
	}
	return res, nil
}

// rowSources marks the original blocks whose transfer-row inputs may
// differ from the layout lay was derived from: the blocks whose addresses
// or instructions changed, and the blocks holding a prefetch whose target
// lies in a changed block (the target's memory block may have moved). At a
// gated level an expanded block's row also reads its L1 verdicts, which
// the caller checks through the L1 result's Changed flags.
func rowSources(p *isa.Program, lay *isa.Layout, buf *[]bool) []bool {
	src := flags(buf, len(p.Blocks))
	for id, b := range p.Blocks {
		if lay.Changed(id) {
			src[id] = true
			continue
		}
		if !lay.HasPrefetch(id) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Kind == isa.KindPrefetch && lay.Changed(in.Target.Block) {
				src[id] = true
				break
			}
		}
	}
	return src
}

// rowBaseEqual compares transfer rows ignoring effectiveness bits (which
// are derived, not part of the program or of the lower level's verdicts).
func rowBaseEqual(a, b []opRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.eff, y.eff = false, false
		if x != y {
			return false
		}
	}
	return true
}

// effScope over-approximates the blocks whose prefetch-effectiveness bits
// may change: a prefetch's BFS reads instructions at most lambda fetches
// ahead of it, so its verdict is stable unless a base-dirty block starts
// within that horizon. dist[u] below is the minimal number of instruction
// fetches strictly between u's exit and the entry of some base-dirty block;
// a prefetch in u (at worst on u's last instruction) reaches dirty
// instructions iff dist[u] < lambda. The distances, the worklist and the
// returned flags live in the chain's scratch sc.
func effScope(x *vivu.Prog, ops [][]opRec, baseDirty []bool, lambda int, sc *scratch) []bool {
	const inf = int32(1) << 30
	n := len(x.Blocks)
	if cap(sc.dist) < n {
		sc.dist = make([]int32, n)
	}
	dist := sc.dist[:n]
	for i := range dist {
		dist[i] = inf
	}
	stack := sc.stack[:0]
	relax := func(u int, v int32) {
		if v < dist[u] {
			dist[u] = v
			stack = append(stack, int32(u))
		}
	}
	for id, d := range baseDirty {
		if !d {
			continue
		}
		for _, p := range x.Blocks[id].Preds {
			relax(p, 0)
		}
	}
	for len(stack) > 0 {
		u := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		v := dist[u] + int32(len(ops[u]))
		if v >= int32(lambda) {
			continue // predecessors would already be past the horizon
		}
		for _, p := range x.Blocks[u].Preds {
			relax(p, v)
		}
	}
	sc.dist, sc.stack = dist, stack
	scope := flags(&sc.scope, n)
	for id := range scope {
		scope[id] = baseDirty[id] || dist[id] < int32(lambda)
	}
	return scope
}

// scratch carries every reusable buffer of the analysis along a chain of
// incremental re-analyses: the state pool (which also fixes whether the
// chain's states have a may component), the effectiveness calculator's
// flat arrays, the worklist flag slices, and the shared cold-cache entry
// state. It travels inside the Result and is shared by every Result of one
// chain, so a steady-state re-analysis allocates almost nothing beyond the
// states it actually retains. A chain
// is inherently sequential; two AnalyzeFrom calls seeded from the same
// chain must not run concurrently.
type scratch struct {
	sp    statePool
	ec    *effCalc
	empty *State
	// flag slices, re-cleared per call
	baseDirty, dirty, rowDirty, ownOut, outChanged, classed, scope []bool
	row                                                            []opRec
	// dist and stack are effScope's distances and worklist.
	dist, stack []int32
	// src marks the original blocks whose rows a scoped build re-derives
	// (see rowSources).
	src []bool
	// cls holds the per-block classification rows the fixpoint records
	// (see analyzer.transferInto); maybe the Uncertain access's buffers.
	cls   [][]Classification
	maybe maybeBuf
	// mask is the cache sets a re-analysis re-solves, and prjOld/prjNew
	// the per-set event lists of a seeded and a new row (see setMask).
	mask           setMask
	prjOld, prjNew projection
}

func newScratch(cfg cache.Config, satLo uint64, noAM bool) *scratch {
	return &scratch{sp: statePool{cfg: cfg, satLo: satLo, noAM: noAM}, empty: newState(cfg, satLo, noAM)}
}

// flags returns n cleared bools backed by *buf, growing it as needed.
func flags(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// statePool recycles State buffers across fixpoint rounds and, via the
// scratch carrier, across the re-analyses of a chain. Slot states the
// fixpoint replaces go back into the pool, and so do the owned exit states
// of a released Result and those a retired Result's successor no longer
// shares; states seeded from a previous Result are never recycled by the
// call they were seeded into (they are shared, possibly interned).
type statePool struct {
	cfg cache.Config
	// satLo is the chain's first memory block, bit 0 of every state's
	// saturated persistence bitset; it is fixed for the chain's lifetime.
	satLo uint64
	// noAM is fixed for the chain's lifetime too: its states have no may
	// component (see State.noAM).
	noAM bool
	free []*State
	// made counts pool misses (fresh states) over the chain's lifetime.
	made int
}

func (p *statePool) get() *State {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.made++
	return p.fresh()
}

// fresh returns a new state of the chain outside the pool.
func (p *statePool) fresh() *State { return newState(p.cfg, p.satLo, p.noAM) }

func (p *statePool) put(s *State) {
	if s != nil {
		p.free = append(p.free, s)
	}
}

// Intern compacts the exit states of the result for long-term retention (a
// result cache, a baseline kept across a sweep): each state's sets move,
// without the room and holes the fixpoint's in-place updates need, into one
// slab shared by the result's states, and its structural hash is recorded
// (giving Equal its O(1) fast path). A compacted state is read-only and is
// never recycled; a transfer that copies it relocates the sets it grows.
// The analysis itself never pays for this. States already compacted by an
// earlier call in the chain are skipped. The result must not be
// re-analyzed concurrently with Intern.
func (r *Result) Intern() {
	total := 0
	for _, s := range r.out {
		if s != nil && !s.interned {
			total += s.live()
		}
	}
	slab := make([]entry, 0, total)
	for _, s := range r.out {
		if s != nil && !s.interned {
			slab = s.compact(slab)
		}
	}
}

// Release returns the exit states this result owns to the chain's state
// pool, then clears the result's exit states and classifications, so any
// later use of it (reading Class, deriving an in-state, seeding a
// re-analysis) fails loudly instead of reading recycled memory. Only a
// result nothing was seeded from may be released: one that was rolled
// back. Its seed keeps every state it shares with it. Release is nil-safe
// and idempotent.
func (r *Result) Release() {
	r.Retire(nil)
}

// Retire ends r's life after next, a result seeded from r, superseded it:
// the owned exit states next still aliases become next's, the rest go back
// to the chain's state pool, and r is cleared like Release. Interned states
// are read-only for good and stay where they are. r must not be used, or
// seeded from, afterwards. A nil next releases r. Retire is nil-safe and
// idempotent.
func (r *Result) Retire(next *Result) {
	if r == nil {
		return
	}
	for _, id := range r.own {
		s := r.out[id]
		switch {
		case s.interned: // compacted into a read-only slab for good
		case next != nil && next.out[id] == s:
			next.own = append(next.own, id)
		default:
			r.scr.sp.put(s)
		}
	}
	r.own, r.out, r.Class = nil, nil, nil
}

// PooledStates counts r's exit states that sit in its chain's state pool.
// It is zero for every live result: a state recycled while r still holds
// it would be overwritten by the chain's next analysis. It walks the pool;
// it is for tests and diagnostics.
func (r *Result) PooledStates() int {
	if r.scr == nil {
		return 0
	}
	pooled := make(map[*State]bool, len(r.scr.sp.free))
	for _, s := range r.scr.sp.free {
		pooled[s] = true
	}
	n := 0
	for _, s := range r.out {
		if s != nil && pooled[s] {
			n++
		}
	}
	return n
}

// DiffStates returns the first expanded block whose exit states in r and o
// differ (reached in only one of them, or unequal), or -1 when every exit
// state is equal. It is for tests and diagnostics.
func (r *Result) DiffStates(o *Result) int {
	n := min(len(r.out), len(o.out))
	for id, s := range r.out[:n] {
		if t := o.out[id]; (s == nil) != (t == nil) || s != nil && !s.Equal(t) {
			return id
		}
	}
	if len(r.out) != len(o.out) {
		return n
	}
	return -1
}

// InState derives the abstract state on entry to expanded block id — the
// join of its predecessors' final exit states, which the block's last
// transfer in the fixpoint classified against (the cold-cache state at the
// entry and at a block no predecessor reaches). The analysis neither stores
// nor walks in-states after the solve; this allocates a fresh one per
// call, for tests and diagnostics.
func (r *Result) InState(id int) *State {
	sp := &r.scr.sp
	a := &analyzer{x: r.X, out: r.out, scrA: sp.fresh(), scrB: sp.fresh(), empty: sp.fresh()}
	in := sp.fresh()
	if st := a.joinPreds(id); st != nil {
		in.copyFrom(st)
	}
	return in
}

// compact appends s's entries to slab, span after span and without room,
// points s's arena at them, records the structural hash and marks s
// interned. The hash folds in each span's hash and the saturated bitset's
// non-zero words with their index, so trailing zero words, which Equal
// ignores, do not change it. It returns the extended slab; the state must
// not be mutated afterwards.
func (s *State) compact(slab []entry) []entry {
	start := len(slab)
	h := uint64(fnvOffset)
	for k := range s.spans {
		v := s.view(k)
		s.spans[k] = span{off: int32(len(slab) - start), n: int32(len(v)), cap: int32(len(v))}
		slab = append(slab, v...)
		h = (h ^ v.hash()) * fnvPrime
	}
	s.arena = slab[start:len(slab):len(slab)]
	for i, w := range s.sat {
		if w != 0 {
			h = (h ^ uint64(i)) * fnvPrime
			h = (h ^ w) * fnvPrime
		}
	}
	s.hash, s.hashOK, s.interned = h, true, true
	return slab
}

// effCalc answers latency-hiding queries (is every first use of the target
// at least lambda fetches downstream of the prefetch?) with the same BFS the
// map-based latencyHidden used, but over flat stamped arrays indexed by a
// global instruction numbering, so a query allocates nothing.
type effCalc struct {
	x     *vivu.Prog
	ops   [][]opRec
	base  []int32 // base[xb]: flat index of instruction 0 of expanded block xb
	dist  []int32
	stamp []int32
	cur   int32
	queue []effNode
}

type effNode struct {
	xb, idx, dist int32
}

// newEffCalc prepares the calculator for the current transfer rows, reusing
// old's arrays when they are large enough. The visit counter keeps running
// across reuses: stamps recorded by earlier calls are strictly below the
// current counter, so stale entries can never read as visited.
func newEffCalc(x *vivu.Prog, ops [][]opRec, old *effCalc) *effCalc {
	c := old
	if c == nil {
		c = &effCalc{}
	}
	c.x, c.ops = x, ops
	if cap(c.base) < len(ops) {
		c.base = make([]int32, len(ops))
	}
	c.base = c.base[:len(ops)]
	total := 0
	for id, row := range ops {
		c.base[id] = int32(total)
		total += len(row)
	}
	if cap(c.dist) < total {
		grown := total + total/4
		c.dist = make([]int32, grown)
		c.stamp = make([]int32, grown)
	}
	c.dist, c.stamp = c.dist[:total], c.stamp[:total]
	if c.cur > 1<<30 { // counter headroom exhausted: restart the epoch
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.cur = 0
	}
	return c
}

// hidden reports whether at least lambda instruction fetches separate the
// prefetch at (xb, idx) from every first use of memory block tgt reachable
// from it, on every path of the expanded graph. Each fetch takes at least
// one cycle, so lambda intervening fetches guarantee the fill has completed.
func (c *effCalc) hidden(xb, idx int, tgt uint64, lambda int) bool {
	c.cur++
	c.queue = c.queue[:0]
	start := c.base[xb] + int32(idx)
	c.stamp[start] = c.cur
	c.dist[start] = 0
	c.queue = append(c.queue, effNode{int32(xb), int32(idx), 0})
	for head := 0; head < len(c.queue); head++ {
		cur := c.queue[head]
		d := cur.dist + 1
		if int(cur.idx)+1 < len(c.ops[cur.xb]) {
			if !c.step(cur.xb, cur.idx+1, d, tgt, lambda) {
				return false
			}
		} else {
			for _, e := range c.x.Blocks[cur.xb].Succs {
				if !c.step(int32(e.To), 0, d, tgt, lambda) {
					return false
				}
			}
		}
	}
	return true
}

// step visits one successor reference at distance d; false means a use of
// tgt fewer than lambda fetches after the prefetch was found. A use at or
// beyond lambda is covered and not explored past; any other reference at
// distance lambda or more is safely beyond the latency window.
func (c *effCalc) step(sxb, sidx, d int32, tgt uint64, lambda int) bool {
	if c.ops[sxb][sidx].acc == tgt {
		return int(d)-1 >= lambda
	}
	if int(d) >= lambda {
		return true
	}
	f := c.base[sxb] + sidx
	if c.stamp[f] != c.cur || d < c.dist[f] {
		c.stamp[f] = c.cur
		c.dist[f] = d
		c.queue = append(c.queue, effNode{sxb, sidx, d})
	}
	return true
}
