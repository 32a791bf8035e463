// Package energy is the analytic stand-in for the CACTI 6.5 power/energy
// model the paper uses (Supplement S.4): per-access dynamic energies and
// leakage powers for the level-one instruction cache, plus access energy and
// latency for the 128 MB level-two DRAM, at the two process technologies of
// the evaluation (45 nm and 32 nm).
//
// The constants are not CACTI outputs; they are chosen to preserve the
// relations the paper's conclusions rest on (see DESIGN.md):
//
//   - dynamic read energy grows with capacity, associativity, and block
//     size;
//   - leakage power grows (roughly linearly) with capacity;
//   - scaling from 45 nm to 32 nm shrinks dynamic energy but *raises* the
//     static share of the total — the trend that makes cache locking
//     increasingly unattractive (Section 2.3);
//   - a DRAM access costs vastly more energy and time than a cache hit.
package energy

import (
	"fmt"
	"math"

	"ucp/internal/cache"
	"ucp/internal/wcet"
)

// Tech is a process technology node.
type Tech int

const (
	// Tech45 is the 45 nm node.
	Tech45 Tech = iota
	// Tech32 is the 32 nm node.
	Tech32
)

// String names the node.
func (t Tech) String() string {
	if t == Tech32 {
		return "32nm"
	}
	return "45nm"
}

// Techs returns the technology nodes of the paper's evaluation.
func Techs() []Tech { return []Tech{Tech45, Tech32} }

// techParams holds the node-dependent scale factors.
type techParams struct {
	dynScale   float64 // dynamic energy multiplier vs. the 45 nm base
	leakScale  float64 // leakage power multiplier vs. the 45 nm base
	cycleNS    float64 // clock cycle in nanoseconds
	missCycles int64   // DRAM access latency in cycles
}

func paramsFor(t Tech) techParams {
	switch t {
	case Tech32:
		// Faster clock: the same DRAM latency spans more cycles. Dynamic
		// energy shrinks with feature size; leakage grows.
		return techParams{dynScale: 0.62, leakScale: 1.85, cycleNS: 1.67, missCycles: 24}
	default:
		return techParams{dynScale: 1.0, leakScale: 1.0, cycleNS: 2.5, missCycles: 16}
	}
}

// array prices one cache array of geometry c at the node: the dynamic
// energy of a read and of a block fill, in pJ, and the leakage power, in
// mW. Every cache level uses these formulas.
func (tp techParams) array(c cache.Config) (read, fill, leak float64) {
	capKB := float64(c.CapacityBytes) / 1024
	// Dynamic read energy: grows sublinearly with capacity (longer word
	// and bit lines), with associativity (parallel tag/data ways), and
	// with block size (wider data output).
	read = 4.2 * math.Pow(capKB, 0.45) * math.Pow(float64(c.Assoc), 0.32) *
		math.Pow(float64(c.BlockBytes)/16, 0.22) * tp.dynScale
	// Fill energy: a whole block is written; scales with block size.
	fill = 6.5 * math.Pow(capKB, 0.30) * math.Pow(float64(c.BlockBytes)/16, 0.85) * tp.dynScale
	// Leakage: proportional to the number of bits, heavier at 32 nm.
	leak = 0.011 * capKB * tp.leakScale
	return read, fill, leak
}

// Model provides energies and timings for one cache configuration at one
// technology node.
type Model struct {
	Cfg  cache.Config
	Tech Tech

	// CacheReadPJ is the dynamic energy of one cache access (tag + data).
	CacheReadPJ float64
	// CacheFillPJ is the dynamic energy of writing one block into the
	// cache (a miss fill or a prefetch fill).
	CacheFillPJ float64
	// LeakageMW is the cache's static power.
	LeakageMW float64
	// DRAMStandbyMW is the background power of the 128 MB level-two DRAM
	// (refresh + standby). It drains over the whole execution, so any
	// ACET reduction converts directly into energy — the effect Section
	// 2.3 of the paper builds its argument on.
	DRAMStandbyMW float64
	// DRAMAccessPJ is the energy of one level-two access (one block).
	DRAMAccessPJ float64
	// CycleNS is the clock period.
	CycleNS float64
	// HitCycles and MissPenalty are the fetch timings; Lambda is the
	// prefetch fill latency.
	HitCycles   int64
	MissPenalty int64
	Lambda      int64

	// Hier is the cache hierarchy the model was derived for; Hier.L1 == Cfg
	// always. The remaining fields are zero for single-level models.
	Hier cache.Hierarchy
	// L2ReadPJ and L2FillPJ are the dynamic energies of an L2 access and an
	// L2 block fill; L2LeakageMW is the L2's static power.
	L2ReadPJ    float64
	L2FillPJ    float64
	L2LeakageMW float64
	// L2HitCycles is the additional fetch time of an L1 miss served by the
	// L2 (beyond HitCycles); always < MissPenalty.
	L2HitCycles int64
}

// NewModelHier derives the model for the hierarchy h at tech; a
// single-level cache is cache.Hier1(cfg). With no L2 configured every L2
// field stays zero and the timing parameters are the single-level ones.
// With an L2, the same geometric formulas price the L2's reads, fills, and
// leakage, and the L2 hit latency is a deterministic integer that grows
// logarithmically with capacity and always undercuts the memory penalty.
func NewModelHier(h cache.Hierarchy, tech Tech) Model {
	if err := h.Valid(); err != nil {
		panic(err)
	}
	cfg := h.L1
	tp := paramsFor(tech)

	// DRAM: 128 MB module; energy per block transfer grows mildly with the
	// block size, and the module's refresh/standby power drains for the
	// whole execution.
	dram := 610 * math.Pow(float64(cfg.BlockBytes)/16, 0.6) * (0.5 + 0.5*tp.dynScale)
	// The 128 MB module is off-chip commodity DRAM: its standby power does
	// not scale with the processor's technology node.
	standby := 42.0

	m := Model{
		Cfg:           cfg,
		Tech:          tech,
		Hier:          h,
		DRAMStandbyMW: standby,
		DRAMAccessPJ:  dram,
		CycleNS:       tp.cycleNS,
		HitCycles:     1,
		MissPenalty:   tp.missCycles,
		Lambda:        tp.missCycles,
	}
	m.CacheReadPJ, m.CacheFillPJ, m.LeakageMW = tp.array(cfg)
	if h.HasL2() {
		// The L2 is a larger, slower array of the same technology: the same
		// read/fill/leakage formulas apply to its geometry.
		m.L2ReadPJ, m.L2FillPJ, m.L2LeakageMW = tp.array(h.L2)
		// L2 hit latency: 2 cycles of array access plus one per doubling of
		// capacity, clamped strictly below the memory penalty so an L2 hit
		// always beats a miss (wcet.Params.Valid enforces the same bound).
		lat := 2 + int64(math.Round(math.Log2(float64(h.L2.CapacityBytes)/1024)))
		if lat < 1 {
			lat = 1
		}
		if lat >= m.MissPenalty {
			lat = m.MissPenalty - 1
		}
		m.L2HitCycles = lat
	}
	return m
}

// WCETParams returns the timing parameters for the WCET analysis and the
// optimizer.
func (m Model) WCETParams() wcet.Params {
	return wcet.Params{
		HitCycles:   m.HitCycles,
		MissPenalty: m.MissPenalty,
		Lambda:      m.Lambda,
		L2HitCycles: m.L2HitCycles,
	}
}

// Account is the activity extract the energy model consumes: how often each
// energy-bearing event occurred, and how long the program ran.
type Account struct {
	// CacheReads is the number of cache accesses (every instruction fetch,
	// hit or miss, including prefetch instruction fetches).
	CacheReads int64
	// CacheFills is the number of blocks written into the cache (miss
	// fills plus completed prefetch fills).
	CacheFills int64
	// DRAMReads is the number of memory accesses (miss fills plus
	// non-redundant prefetch fills).
	DRAMReads int64
	// L2Reads and L2Fills count L2 cache accesses and block fills; zero when
	// no L2 is modeled, making their energy terms vanish.
	L2Reads int64
	L2Fills int64
	// Cycles is the execution time the static power drains over.
	Cycles int64
}

// Breakdown is an energy result in picojoules.
type Breakdown struct {
	DynamicPJ float64
	StaticPJ  float64
}

// TotalPJ is the total memory-system energy.
func (b Breakdown) TotalPJ() float64 {
	return b.DynamicPJ + b.StaticPJ
}

// Energy evaluates the account under the model. The L2 terms (dynamic per
// L2 read/fill, static L2 leakage) are all zero for single-level models, so
// pre-hierarchy breakdowns are unchanged to the bit.
func (m Model) Energy(a Account) Breakdown {
	dyn := float64(a.CacheReads)*m.CacheReadPJ +
		float64(a.CacheFills)*m.CacheFillPJ +
		float64(a.DRAMReads)*m.DRAMAccessPJ +
		float64(a.L2Reads)*m.L2ReadPJ +
		float64(a.L2Fills)*m.L2FillPJ
	static := (m.LeakageMW + m.L2LeakageMW + m.DRAMStandbyMW) * float64(a.Cycles) * m.CycleNS // mW·ns = pJ
	return Breakdown{DynamicPJ: dyn, StaticPJ: static}
}

// String renders the model for reports.
func (m Model) String() string {
	return fmt.Sprintf("%s %v: read=%.1fpJ fill=%.1fpJ dram=%.0fpJ leak=%.3fmW miss=%dcyc",
		m.Tech, m.Cfg, m.CacheReadPJ, m.CacheFillPJ, m.DRAMAccessPJ, m.LeakageMW, m.MissPenalty)
}
