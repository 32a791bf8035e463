package absint

import (
	"context"

	"ucp/internal/cache"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/obs"
	"ucp/internal/vivu"
)

// This file implements the incremental re-analysis entry point and the
// machinery the shared fixpoint needs to stay allocation-light: a per-call
// state pool, hash-consed interning of converged set states for retained
// results, and a flat-array replacement for the map-based effectiveness BFS.
//
// Soundness of the incremental restart (see DESIGN.md for the long form):
// the dirty set D is the set of expanded blocks whose transfer function
// changed (different opRec row — fetched blocks, CAC gates, prefetch
// flags, targets, or effectiveness). The rule is the same at every level:
// an L2 row also changes when the L1 verdict gating one of its fetches
// moved, so a re-classification at L1 dirties exactly the L2 blocks it
// reaches. Every slot is seeded with the previous solution and
// the fixpoint walks the strongly-connected components of the graph in
// condensation topological order (see solve in absint.go). By induction
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

// AnalyzeFrom re-runs the analysis after a program mutation, reusing prev
// wherever the transfer functions did not change. It yields a Result
// bit-identical to Analyze on the mutated program. prev must come from an
// Analyze/AnalyzeFrom call on the same expanded program (the expansion is
// structural, so in-place instruction edits keep it valid); when prev is
// nil or incompatible the call degrades to a full analysis. An aborted call
// (canceled ctx) returns a typed interrupt error and leaves prev fully
// usable for a later retry.
func AnalyzeFrom(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int, prev *Result) (*Result, error) {
	if prev == nil || prev.X != x || prev.Cfg != cfg || prev.lambda != lambda || prev.gated {
		prev = nil
	}
	return analyze(ctx, x, lay, cfg, lambda, nil, prev)
}

// analyze is the one fixpoint behind every level: Analyze and AnalyzeFrom
// run it for the L1 (l1 == nil, every access Always), AnalyzeL2 and
// AnalyzeL2From for the L2 gated by the L1 result l1. prev == nil means a
// full analysis.
func analyze(ctx context.Context, x *vivu.Prog, lay *isa.Layout, cfg cache.Config, lambda int, l1, prev *Result) (*Result, error) {
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
		X:         x,
		Cfg:       cfg,
		In:        make([]*State, n),
		Class:     make([][]Classification, n),
		Effective: make([][]bool, n),
		lambda:    lambda,
		gated:     l1 != nil,
		out:       make([]*State, n),
	}
	full := prev == nil
	var sc *scratch
	if !full {
		sc = prev.scr
	}
	if sc == nil {
		sc = newScratch(cfg)
	}
	res.scr = sc
	a := &analyzer{
		x: x, cfg: cfg, res: res, sp: &sc.sp,
		ctx: ctx, chk: interrupt.NewChecker(ctx, checkInterval),
	}

	// Build the per-block transfer rows. In the incremental case the program
	// was mutated in place, so the previous instructions are gone — the
	// previous result's opRec rows are the only diffable snapshot. Rows that
	// match byte for byte alias the previous row (keeping its effectiveness
	// bits); the rest are the base-dirty set.
	ops := make([][]opRec, n)
	baseDirty := flags(&sc.baseDirty, n)
	rowBuf := sc.row
	for _, xb := range x.Blocks {
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
		scope := effScope(x, ops, baseDirty, lambda)
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

	for id := range ops {
		if !full && !dirty[id] {
			res.Effective[id] = prev.Effective[id]
			continue
		}
		effRow := make([]bool, len(ops[id]))
		for i, op := range ops[id] {
			effRow[i] = op.eff
		}
		res.Effective[id] = effRow
	}

	if full {
		res.sccs = buildSCCPlan(x)
	} else {
		res.sccs = prev.sccs
		res.interns = prev.interns
	}

	// rowDirty snapshots the transfer-row changes before solve consumes the
	// dirty flags as its worklist.
	var rowDirty []bool
	if !full {
		rowDirty = flags(&sc.rowDirty, n)
		copy(rowDirty, dirty)
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
	}
	if !full {
		copy(a.out, prev.out)
	}
	a.scrA, a.scrB = a.sp.get(), a.sp.get()
	if l1 != nil { // only a gated level has Uncertain fetches
		a.tmp, a.jn = a.sp.get(), a.sp.get()
	}
	defer func() {
		a.sp.put(a.scrA)
		a.sp.put(a.scrB)
		a.sp.put(a.tmp)
		a.sp.put(a.jn)
	}()
	a.empty = sc.empty
	if err := a.solve(res.sccs); err != nil {
		return nil, err
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
	walk := a.sp.get()
	for _, id := range x.Topo {
		if err := a.chk.Check(); err != nil {
			a.sp.put(walk)
			return nil, err
		}
		if !full && !res.Changed[id] {
			res.In[id] = prev.In[id]
			res.Class[id] = prev.Class[id]
			continue
		}
		a.classify(id, a.inState(id), walk)
	}
	a.sp.put(walk)
	if span != nil {
		span.Attr("rounds", a.rounds)
		span.Attr("states_pooled", len(sc.sp.free))
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

// inState builds the converged in-state of block id: the single live
// predecessor's exit state is aliased (both are immutable once the result is
// returned), a multi-predecessor join gets a fresh compact state, and the
// entry (or an unreachable block) gets the cold-cache state.
func (a *analyzer) inState(id int) *State {
	if id == a.x.Entry {
		return NewState(a.cfg)
	}
	live := 0
	for _, p := range a.x.Blocks[id].Preds {
		if a.out[p] != nil {
			live++
		}
	}
	st := a.joinPreds(id)
	switch {
	case st == nil:
		return NewState(a.cfg)
	case live == 1:
		return st
	default:
		c := NewState(a.cfg)
		c.copyCompact(st)
		return c
	}
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
// instructions iff dist[u] < lambda.
func effScope(x *vivu.Prog, ops [][]opRec, baseDirty []bool, lambda int) []bool {
	const inf = int32(1) << 30
	n := len(x.Blocks)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = inf
	}
	var stack []int32
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
	scope := make([]bool, n)
	for id := range scope {
		scope[id] = baseDirty[id] || dist[id] < int32(lambda)
	}
	return scope
}

// scratch carries every reusable buffer of the analysis along a chain of
// incremental re-analyses: the state pool, the effectiveness calculator's
// flat arrays, the worklist flag slices, and the shared cold-cache entry
// state. It travels inside the Result (like the interning table) and is
// shared by every Result of one chain, so a steady-state re-analysis
// allocates almost nothing beyond the states it actually retains. A chain
// is inherently sequential; two AnalyzeFrom calls seeded from the same
// chain must not run concurrently.
type scratch struct {
	sp    statePool
	ec    *effCalc
	empty *State
	// flag slices, re-cleared per call
	baseDirty, dirty, rowDirty, ownOut, outChanged []bool
	row                                            []opRec
}

func newScratch(cfg cache.Config) *scratch {
	return &scratch{sp: statePool{cfg: cfg}, empty: NewState(cfg)}
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
// fixpoint replaces go back into the pool; states seeded from a previous
// Result are never recycled (they are shared, possibly interned).
type statePool struct {
	cfg  cache.Config
	free []*State
}

func (p *statePool) get() *State {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return NewState(p.cfg)
}

func (p *statePool) put(s *State) {
	if s != nil {
		p.free = append(p.free, s)
	}
}

// internTable hash-conses converged set states so identical per-set states
// across calling contexts — and across the whole chain of incremental
// re-analyses, since the table travels inside the Result — share one
// canonical compact copy.
type internTable struct {
	m map[uint64][]setState
}

func newInternTable() *internTable { return &internTable{m: map[uint64][]setState{}} }

// canon returns the canonical copy of s and its hash.
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

// Intern hash-conses the set states of the result so identical per-set
// states across calling contexts — and across a chain of incremental
// re-analyses, since the table travels inside the Result — share one
// canonical compact copy, and the pooled backing buffers (sized with
// headroom for the fixpoint's in-place updates) are released. It is meant
// for results retained long-term (a result cache, a baseline kept across a
// sweep); the analysis itself never pays for it. States already interned by
// an earlier call in the chain are skipped in O(1). The result must not be
// re-analyzed concurrently with Intern.
func (r *Result) Intern() {
	if r.interns == nil {
		r.interns = newInternTable()
	}
	for _, s := range r.In {
		if s != nil && !s.hashOK {
			r.interns.internState(s)
		}
	}
	for _, s := range r.out {
		if s != nil && !s.hashOK {
			r.interns.internState(s)
		}
	}
}

// internState replaces every set slice of s with its canonical copy, drops
// the private backing buffer, and records the structural hash (giving Equal
// its O(1) fast path on interned states). The state must not be mutated
// afterwards.
func (t *internTable) internState(s *State) {
	h := uint64(fnvOffset)
	for i := range s.must {
		c, ch := t.canon(s.must[i])
		s.must[i] = c
		h = (h ^ ch) * fnvPrime
	}
	for i := range s.may {
		c, ch := t.canon(s.may[i])
		s.may[i] = c
		h = (h ^ ch) * fnvPrime
	}
	for i := range s.pers {
		c, ch := t.canon(s.pers[i])
		s.pers[i] = c
		h = (h ^ ch) * fnvPrime
	}
	s.buf = nil
	s.hash, s.hashOK = h, true
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

// joinMust and joinMay are the allocating forms of the join functions,
// retained for tests and external callers.
func joinMust(a, b setState) setState { return joinMustInto(nil, a, b) }
func joinMay(a, b setState) setState  { return joinMayInto(nil, a, b) }
