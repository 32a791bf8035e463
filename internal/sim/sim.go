// Package sim is the trace-driven simulator standing in for the
// instruction-set simulator (GEM5) of the paper's setup (Supplement S.4):
// it executes a program under a seeded average-case driver — loop trip
// counts drawn around their annotated means, branches by their annotated
// probabilities — through a concrete cache with a non-blocking prefetch
// port, and accounts every event the energy model needs.
//
// The simulator measures the *memory contribution* to the execution time,
// exactly the quantity the paper evaluates: every instruction costs its
// fetch time (hit time, or the miss penalty, or a stall on an in-flight
// fill); software prefetches overlap with execution.
package sim

import (
	"math"
	"math/rand"

	"ucp/internal/cache"
	"ucp/internal/energy"
	"ucp/internal/hwpref"
	"ucp/internal/isa"
	"ucp/internal/wcet"
)

// Options configures a simulation.
type Options struct {
	// Par are the memory timings (hit, miss penalty, prefetch latency).
	Par wcet.Params
	// Seed drives the average-case branch/loop behavior; run r uses
	// Seed+r.
	Seed int64
	// Runs is the number of independent cold-start executions to average
	// over (default 1).
	Runs int
	// HW optionally attaches a hardware prefetcher baseline.
	HW hwpref.Prefetcher
	// Locked, when non-nil, switches the cache to statically locked
	// operation: accesses to locked blocks always hit, every other access
	// goes to memory without allocating (the cache-locking baseline of
	// Section 2.2).
	Locked map[uint64]bool
	// OnFetch, when non-nil, observes every demand instruction fetch with
	// its static reference and whether it hit the cache (a stall on an
	// in-flight fill counts as a hit). The cross-layer soundness tests use
	// it to check classifications against concrete behavior per reference.
	OnFetch func(ref isa.InstrRef, hit bool)
	// OnFetch2, when non-nil, observes every demand fetch that misses the
	// L1 and probes the L2, with whether the L2 hit (a wait on an in-flight
	// L2 fill counts as a hit). Never called without a configured L2.
	OnFetch2 func(ref isa.InstrRef, hit bool)
}

// Stats aggregates the events of all runs.
type Stats struct {
	Runs    int
	Cycles  int64 // memory cycles over all runs
	Fetches int64 // instructions executed (including prefetches)
	Hits    int64
	Misses  int64 // demand fetches that paid the full miss penalty
	Stalls  int64 // demand fetches that waited on an in-flight fill
	// StallCycles is the total time spent waiting on in-flight fills.
	StallCycles int64

	PrefetchExecuted  int64 // software prefetch instructions fetched
	PrefetchIssued    int64 // fills enqueued by software prefetches
	PrefetchRedundant int64 // software prefetches whose block was resident
	HWIssued          int64 // fills enqueued by the hardware prefetcher
	HWDropped         int64 // hardware requests dropped on a full queue

	DRAMReads  int64 // memory block transfers
	CacheFills int64 // blocks written into the L1

	L2Hits   int64 // L1 misses served by the L2
	L2Misses int64 // L1 misses that also missed the L2 (went to memory)
	L2Reads  int64 // L2 lookups (demand probes plus prefetch probes)
	L2Fills  int64 // blocks written into the L2
}

// ACETCycles is the average memory time of one run.
func (s Stats) ACETCycles() float64 { return float64(s.Cycles) / float64(s.Runs) }

// MissRate is misses per demand fetch.
func (s Stats) MissRate() float64 {
	demand := s.Fetches
	if demand == 0 {
		return 0
	}
	return float64(s.Misses) / float64(demand)
}

// L2MissRate is L2 misses per demand L2 probe (an L1 miss that went to the
// L2). Zero when no L2 is simulated.
func (s Stats) L2MissRate() float64 {
	demand := s.L2Hits + s.L2Misses
	if demand == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(demand)
}

// FetchesPerRun is the average dynamic instruction count.
func (s Stats) FetchesPerRun() float64 { return float64(s.Fetches) / float64(s.Runs) }

// Account converts the statistics into the energy model's activity vector
// (per-run averages scaled back to totals is unnecessary: energy of one run
// is Account()/Runs-proportional, and all figures use ratios).
func (s Stats) Account() energy.Account {
	return energy.Account{
		CacheReads: s.Fetches,
		CacheFills: s.CacheFills,
		DRAMReads:  s.DRAMReads,
		L2Reads:    s.L2Reads,
		L2Fills:    s.L2Fills,
		Cycles:     s.Cycles,
	}
}

// maxOutstanding bounds the fill queue: a software prefetch waits for a
// slot, a hardware request is dropped, as a real prefetch buffer would.
const maxOutstanding = 4

type fill struct {
	block uint64
	ready int64
	// l2 marks a fill that installs into the L2 only (a Level-2 software
	// prefetch); block is then an L2 block number.
	l2 bool
}

type machine struct {
	p   *isa.Program
	lay *isa.Layout
	cfg cache.Config
	o   Options
	st  *cache.State
	// l2 is the concrete L2 state, nil when no L2 is configured — every
	// L2 branch below is gated on it, so single-level runs execute the
	// exact pre-hierarchy paths.
	l2    *cache.State
	h     cache.Hierarchy
	rng   *rand.Rand
	t     int64
	fills []fill
	// firstUse tracks the tagged-prefetch bit: prefetched blocks not yet
	// demand-read since their fill landed.
	firstUse map[uint64]bool
	stats    *Stats

	// inner[b] is the innermost loop of block b (p.LoopOf(b)) and head[b]
	// whether b heads it, tabulated once per RunHier.
	inner []int
	head  []bool
}

// RunHier simulates the program on the cache hierarchy h and returns the
// aggregated statistics; a single-level cache is cache.Hier1(cfg), and every
// L2 branch is then skipped. The Locked mode stays single-level:
// the locking baseline of the paper locks the L1 and bypasses allocation
// entirely, so a configured L2 is rejected there.
func RunHier(p *isa.Program, h cache.Hierarchy, o Options) Stats {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if err := o.Par.Valid(); err != nil {
		panic(err)
	}
	if err := h.Valid(); err != nil {
		panic(err)
	}
	if h.HasL2() {
		if o.Par.L2HitCycles < 1 {
			panic("sim: hierarchy simulation needs Par.L2HitCycles >= 1")
		}
		if o.Locked != nil {
			panic("sim: locked mode is single-level; configure no L2")
		}
	}
	stats := Stats{Runs: o.Runs}
	lay := isa.NewLayout(p)
	inner, head := loopTable(p)
	for r := 0; r < o.Runs; r++ {
		m := &machine{
			p:        p,
			lay:      lay,
			inner:    inner,
			head:     head,
			cfg:      h.L1,
			h:        h,
			o:        o,
			st:       cache.NewState(h.L1),
			rng:      rand.New(rand.NewSource(o.Seed + int64(r))),
			firstUse: map[uint64]bool{},
			stats:    &stats,
		}
		if h.HasL2() {
			m.l2 = cache.NewState(h.L2)
		}
		if o.HW != nil {
			o.HW.Reset()
		}
		m.run()
	}
	return stats
}

func (m *machine) run() {
	loopIters := map[int]int{}
	cur := m.p.Entry
	prev := -1
	guard := 0
	for {
		guard++
		if guard > 2_000_000 {
			panic("sim: execution did not terminate (loop annotations inconsistent?)")
		}
		b := m.p.Blocks[cur]
		li, isHead := m.inner[cur], m.head[cur]
		if isHead && m.freshEntry(li, prev) {
			loopIters[li] = m.drawIters(li)
		}
		m.execBlock(b, loopIters)
		if len(b.Succs) == 0 {
			m.stats.Cycles += m.t
			return
		}
		prev = cur
		switch {
		case isHead:
			if loopIters[li] > 0 {
				loopIters[li]--
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
		case b.Terminator().Kind == isa.KindBranch:
			if m.rng.Float64() < b.TakenProb {
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
		default:
			cur = b.Succs[0]
		}
	}
}

// loopTable tabulates p.LoopOf for every block — the innermost loop
// containing it, or −1 — and whether the block heads that loop, so the
// run loop does not scan the loop annotations per executed block.
func loopTable(p *isa.Program) (inner []int, head []bool) {
	depth := make([]int, len(p.Loops))
	for i := range p.Loops {
		for li := i; li >= 0; li = p.Loops[li].Parent {
			depth[i]++
		}
	}
	inner = make([]int, len(p.Blocks))
	for b := range inner {
		inner[b] = -1
	}
	// Same scan order and tie-break as LoopOf: the first deepest loop wins.
	for i, l := range p.Loops {
		for _, b := range l.Blocks {
			if inner[b] == -1 || depth[i] > depth[inner[b]] {
				inner[b] = i
			}
		}
	}
	head = make([]bool, len(p.Blocks))
	for b, li := range inner {
		head[b] = li >= 0 && p.Loops[li].Head == b
	}
	return inner, head
}

func (m *machine) freshEntry(li, prev int) bool {
	if prev < 0 {
		return true
	}
	for _, member := range m.p.Loops[li].Blocks {
		if member == prev {
			return false
		}
	}
	return true
}

// drawIters samples the trip count of one loop entry: normally distributed
// around the annotated mean, clamped to [0, bound]. A mean equal to the
// bound makes the loop deterministic (counted loops like matrix kernels).
func (m *machine) drawIters(li int) int {
	l := m.p.Loops[li]
	if l.AvgIters >= float64(l.Bound) {
		return l.Bound
	}
	spread := math.Max(1, l.AvgIters*0.2)
	v := int(math.Round(m.rng.NormFloat64()*spread + l.AvgIters))
	if v < 0 {
		v = 0
	}
	if v > l.Bound {
		v = l.Bound
	}
	return v
}

// execBlock fetches every instruction of the block, handling prefetch
// issues and hardware prefetch triggers.
func (m *machine) execBlock(b *isa.Block, loopIters map[int]int) {
	for i, in := range b.Instrs {
		ref := isa.InstrRef{Block: b.ID, Index: i}
		pc := m.lay.Addr(ref)
		blk := pc / uint64(m.cfg.BlockBytes)
		hit, first := m.fetch(ref, pc, blk)
		if m.o.OnFetch != nil {
			m.o.OnFetch(ref, hit)
		}

		m.stats.Fetches++
		if in.Kind == isa.KindPrefetch {
			m.stats.PrefetchExecuted++
			switch {
			case in.Level == 2 && m.l2 != nil:
				m.issueL2(m.lay.MemBlock(in.Target, m.h.L2.BlockBytes))
			case in.Level == 2:
				// A Level-2 prefetch on a machine with no L2 has nothing to
				// fill; its fetch already cost a cycle.
			default:
				var tgt2 uint64
				if m.l2 != nil {
					tgt2 = m.lay.MemBlock(in.Target, m.h.L2.BlockBytes)
				}
				m.issueSoftware(m.lay.MemBlock(in.Target, m.cfg.BlockBytes), tgt2)
			}
		}
		if m.o.HW != nil {
			m.triggerHW(b, i, pc, blk, hit, first, loopIters)
		}
	}
}

// fetch performs one demand access at the current time and advances the
// clock. It reports whether the access hit, and whether it is the first
// demand access to blk since the block was (pre)fetched: the tag bit of
// tagged prefetching as it was before the access, which the access clears.
func (m *machine) fetch(ref isa.InstrRef, pc, blk uint64) (hit, first bool) {
	m.applyFills()
	if m.o.Locked != nil {
		// Statically locked cache: no state changes ever.
		if m.o.Locked[blk] {
			m.stats.Hits++
			m.t += m.o.Par.HitCycles
			return true, false
		}
		m.stats.Misses++
		m.stats.DRAMReads++
		m.t += m.o.Par.MissCycles()
		return false, false
	}
	if m.st.Contains(blk) {
		m.st.Access(blk)
		first = m.firstUse[blk]
		delete(m.firstUse, blk)
		m.stats.Hits++
		m.t += m.o.Par.HitCycles
		return true, first
	}
	// In-flight L1 fill?
	for _, f := range m.fills {
		if f.l2 || f.block != blk {
			continue
		}
		// Stall until the fill lands, then hit.
		if f.ready > m.t {
			m.stats.StallCycles += f.ready - m.t
			m.t = f.ready
		}
		m.stats.Stalls++
		m.applyFills()
		if !m.st.Contains(blk) {
			// The fill landed and was immediately evicted by another fill
			// applied in the same instant; treat as a miss refill.
			m.st.Access(blk)
			m.stats.CacheFills++
		} else {
			m.st.Access(blk)
		}
		delete(m.firstUse, blk) // the landed fill tagged it
		m.stats.Hits++
		m.t += m.o.Par.HitCycles
		return true, true
	}
	// L1 miss: the demand fetch clears a tag left by a prefetched copy of
	// blk evicted before its first use. Probe the L2 when one is
	// configured.
	delete(m.firstUse, blk)
	if m.l2 != nil {
		return m.fetchL2(ref, pc, blk), true
	}
	// Full miss straight to memory.
	m.st.Access(blk)
	m.stats.Misses++
	m.stats.DRAMReads++
	m.stats.CacheFills++
	m.t += m.o.Par.MissCycles()
	return false, true
}

// fetchL2 serves a demand L1 miss from the L2, waiting out an in-flight
// L2-targeted prefetch fill of the block if there is one, and going to
// memory (filling both levels) on an L2 miss.
func (m *machine) fetchL2(ref isa.InstrRef, pc, blk uint64) bool {
	blk2 := pc / uint64(m.h.L2.BlockBytes)
	m.stats.Misses++
	m.stats.L2Reads++
	for _, f := range m.fills {
		if !f.l2 || f.block != blk2 {
			continue
		}
		if f.ready > m.t {
			m.stats.StallCycles += f.ready - m.t
			m.t = f.ready
		}
		m.stats.Stalls++
		m.applyFills()
		break
	}
	if m.l2.Contains(blk2) {
		m.l2.Access(blk2)
		m.stats.L2Hits++
		if m.o.OnFetch2 != nil {
			m.o.OnFetch2(ref, true)
		}
		m.st.Access(blk)
		m.stats.CacheFills++
		m.t += m.o.Par.HitCycles + m.o.Par.L2HitCycles
		return false
	}
	// L2 miss: the block comes from memory and fills both levels.
	m.stats.L2Misses++
	m.stats.DRAMReads++
	if m.o.OnFetch2 != nil {
		m.o.OnFetch2(ref, false)
	}
	m.l2.Access(blk2)
	m.stats.L2Fills++
	m.st.Access(blk)
	m.stats.CacheFills++
	m.t += m.o.Par.HitCycles + m.o.Par.L2HitCycles + m.o.Par.MissPenalty
	return false
}

// issueSoftware enqueues a software prefetch fill into the L1. With an L2
// configured, the fill is served from the L2 when the target's L2 block is
// resident (arriving after only the L2 hit latency, touching no memory);
// otherwise it comes from memory and installs into both levels.
func (m *machine) issueSoftware(blk, blk2 uint64) {
	if m.o.Locked != nil {
		return // locked cache cannot be refilled
	}
	if m.st.Contains(blk) || m.pending(blk, false) {
		m.stats.PrefetchRedundant++
		return
	}
	if len(m.fills) >= maxOutstanding {
		m.waitForSlot()
	}
	ready := m.t + m.o.Par.Lambda
	if m.l2 != nil {
		m.stats.L2Reads++
		if m.l2.Contains(blk2) {
			m.l2.Access(blk2)
			ready = m.t + m.o.Par.L2HitCycles
		} else {
			m.stats.DRAMReads++
			// The block passes through the L2 on its way into the L1.
			m.l2.Access(blk2)
			m.stats.L2Fills++
		}
	} else {
		m.stats.DRAMReads++
	}
	m.fills = append(m.fills, fill{block: blk, ready: ready})
	m.stats.PrefetchIssued++
}

// issueL2 enqueues a Level-2 software prefetch: the fill installs into the
// L2 only, leaving the L1 (and its fill queue slots' semantics) unchanged.
func (m *machine) issueL2(blk uint64) {
	m.stats.L2Reads++
	if m.l2.Contains(blk) {
		m.l2.Access(blk)
		m.stats.PrefetchRedundant++
		return
	}
	if m.pending(blk, true) {
		m.stats.PrefetchRedundant++
		return
	}
	if len(m.fills) >= maxOutstanding {
		m.waitForSlot()
	}
	m.fills = append(m.fills, fill{block: blk, ready: m.t + m.o.Par.Lambda, l2: true})
	m.stats.PrefetchIssued++
	m.stats.DRAMReads++
}

// waitForSlot blocks until the earliest outstanding fill retires: a software
// prefetch waits for a queue slot rather than being dropped.
func (m *machine) waitForSlot() {
	earliest := m.fills[0].ready
	for _, f := range m.fills {
		if f.ready < earliest {
			earliest = f.ready
		}
	}
	if earliest > m.t {
		m.stats.StallCycles += earliest - m.t
		m.t = earliest
	}
	m.applyFills()
}

// issueHW enqueues a hardware prefetch fill, dropping on a full queue.
func (m *machine) issueHW(blk uint64) {
	if m.st.Contains(blk) || m.pending(blk, false) {
		return
	}
	if len(m.fills) >= maxOutstanding {
		m.stats.HWDropped++
		return
	}
	m.fills = append(m.fills, fill{block: blk, ready: m.t + m.o.Par.Lambda})
	m.stats.HWIssued++
	m.stats.DRAMReads++
}

// pending reports whether a fill of blk into the L2 (l2) or the L1 is in
// flight.
func (m *machine) pending(blk uint64, l2 bool) bool {
	for _, f := range m.fills {
		if f.l2 == l2 && f.block == blk {
			return true
		}
	}
	return false
}

// applyFills retires every fill whose latency has elapsed, into the level
// it targets.
func (m *machine) applyFills() {
	if len(m.fills) == 0 {
		return
	}
	rest := m.fills[:0]
	for _, f := range m.fills {
		switch {
		case f.ready > m.t:
			rest = append(rest, f)
		case f.l2:
			m.l2.Insert(f.block)
			m.stats.L2Fills++
		default:
			m.st.Insert(f.block)
			m.firstUse[f.block] = true
			m.stats.CacheFills++
		}
	}
	m.fills = rest
}

// triggerHW builds the prefetcher event for the fetch just performed and
// enqueues whatever the mechanism requests.
func (m *machine) triggerHW(b *isa.Block, i int, pc, blk uint64, hit, first bool, loopIters map[int]int) {
	in := b.Instrs[i]
	ev := hwpref.Event{
		PC:       pc,
		Block:    blk,
		Hit:      hit,
		FirstUse: first,
		IsBranch: in.Kind == isa.KindBranch,
	}
	if ev.IsBranch && len(b.Succs) == 2 {
		ev.TakenPC = m.lay.Addr(isa.InstrRef{Block: b.Succs[0], Index: 0})
		ev.FallPC = m.lay.Addr(isa.InstrRef{Block: b.Succs[1], Index: 0})
		// Resolve the branch the same way run() will: peek the driver
		// state without consuming randomness (approximation: predict the
		// likelier arm; the RPT learns from it).
		if m.head[b.ID] {
			if loopIters[m.inner[b.ID]] > 0 {
				ev.NextPC = ev.TakenPC
			} else {
				ev.NextPC = ev.FallPC
			}
		} else if b.TakenProb >= 0.5 {
			ev.NextPC = ev.TakenPC
		} else {
			ev.NextPC = ev.FallPC
		}
	}
	for _, pb := range m.o.HW.OnAccess(ev, m.cfg.BlockBytes) {
		m.issueHW(pb)
	}
}
