// Package experiment reproduces the paper's evaluation (Section 5 and
// Supplement S.5): it sweeps the 37 benchmark programs over the 36 cache
// configurations of Table 2 and the two process technologies, optimizes
// every use case, measures WCET, ACET, miss rate, executed instructions and
// energy, and renders the series behind Figures 3, 4, 5, 7 and 8 as well as
// Tables 1 and 2.
package experiment

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/faults"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
	"ucp/internal/pool"
	"ucp/internal/sim"
)

// Cell is the measurement of one use case (program × configuration ×
// technology), the unit behind every figure.
type Cell struct {
	Program  string
	ConfigID string
	Cfg      cache.Config
	// L2Cfg is the second level of the swept hierarchy; the zero value
	// means the cell ran the paper's single-level model.
	L2Cfg cache.Config
	Tech  energy.Tech

	Inserted int
	// InsertedL2 counts the prefetch-into-L2 instructions among Inserted.
	InsertedL2  int
	Validations int
	// Cond3Reverted records that the optimized binary was discarded
	// because its simulated ACET regressed (Condition 3 guard).
	Cond3Reverted bool
	// Decisions is the optimizer's explain report (Options.Explain): one
	// entry per prefetch candidate, inserted and rejected alike.
	Decisions []core.Decision `json:",omitempty"`

	TauOrig, TauOpt         int64
	MissWOrig, MissWOpt     int64
	L2MissWOrig, L2MissWOpt int64

	ACETOrig, ACETOpt             float64
	MissRateOrig, MissRateOpt     float64
	L2MissRateOrig, L2MissRateOpt float64
	EnergyOrig, EnergyOpt         float64 // total memory energy, pJ
	DynOrig, DynOpt               float64
	StaticOrig, StaticOpt         float64
	FetchesOrig, FetchesOpt       float64

	// Reduced-capacity runs of the optimized binary (Figure 5); valid only
	// when the halved/quartered configuration exists.
	HasHalf                    bool
	TauHalf                    int64
	ACETHalf, EnergyHalf       float64
	HasQuarter                 bool
	TauQuarter                 int64
	ACETQuarter, EnergyQuarter float64
}

// HasL2 reports whether the cell measured a two-level hierarchy.
func (c Cell) HasL2() bool { return c.L2Cfg != (cache.Config{}) }

// CellExec executes one cell of the sweep matrix; its signature matches
// RunCell, the local implementation. It is the remote-execution seam: a
// distributed coordinator (internal/dist) satisfies it by shipping the
// cell to a worker replica over HTTP, and the analysis service satisfies
// it per-configuration, so every consumer of the sweep engine — figures,
// CSV, the batch API — is transparently local or distributed.
type CellExec func(ctx context.Context, b malardalen.Benchmark, cfgIdx int, tech energy.Tech, o Options) (Cell, error)

// Options configures a sweep.
type Options struct {
	// Programs restricts the benchmark set (nil = all 37).
	Programs []string
	// Configs restricts the Table 2 indices (nil = all 36).
	Configs []int
	// Techs restricts the technology nodes (nil = both).
	Techs []energy.Tech
	// Policy selects the cache replacement policy applied to every swept
	// configuration (zero value = LRU, the paper's model).
	Policy cache.Policy
	// L2 backs every swept Table 2 configuration (the L1) with this second
	// cache level. The zero value keeps the paper's single-level model.
	L2 cache.Config
	// L2s sweeps the hierarchy axis: the whole matrix runs once per entry
	// (a zero entry means single-level). When set it overrides L2. The
	// axis nests innermost, so the (program, config, technology) output
	// order of single-level sweeps is unchanged.
	L2s []cache.Config
	// Runs is the number of average-case executions per measurement
	// (default 3).
	Runs int
	// ValidationBudget caps the optimizer's re-analyses per cell
	// (0 = optimizer default).
	ValidationBudget int
	// Workers is the number of cells analyzed concurrently
	// (0 = GOMAXPROCS, 1 = serial). Whatever the completion order, the
	// resulting Suite lists cells in deterministic (program, config,
	// technology) order, so rendered figures and CSV output are
	// byte-stable across worker counts.
	Workers int
	// SkipReduced skips the half/quarter-capacity re-optimization runs
	// (Figure 5); the analysis service sets this because its results do
	// not include the reduced-capacity series.
	SkipReduced bool
	// Progress, when non-nil, receives one line per completed cell (in
	// completion order when Workers > 1).
	Progress io.Writer
	// Explain forwards core.Options.Explain: every cell's optimization
	// records its per-prefetch decision log into Cell.Decisions.
	Explain bool
	// Exec replaces local cell execution (nil = RunCell in this process).
	// The sweep's determinism does not depend on where cells run: results
	// land by index, so a distributed sweep renders byte-identical output.
	Exec CellExec `json:"-"`
}

// Suite is a completed sweep.
type Suite struct {
	Cells []Cell
}

// unit is one (program, configuration, technology) cell of the sweep
// matrix, in its deterministic output position.
type unit struct {
	b    malardalen.Benchmark
	ci   int
	tech energy.Tech
	l2   cache.Config
}

// units expands the options into the deterministic cell list.
func units(o Options) []unit {
	benches := malardalen.All()
	if o.Programs != nil {
		want := map[string]bool{}
		for _, p := range o.Programs {
			want[p] = true
		}
		var filtered []malardalen.Benchmark
		for _, b := range benches {
			if want[b.Name] {
				filtered = append(filtered, b)
			}
		}
		benches = filtered
	}
	cfgIdxs := o.Configs
	if cfgIdxs == nil {
		for i := range cache.Table2() {
			cfgIdxs = append(cfgIdxs, i)
		}
	}
	techs := o.Techs
	if techs == nil {
		techs = energy.Techs()
	}
	l2s := o.L2s
	if l2s == nil {
		l2s = []cache.Config{o.L2}
	}
	var out []unit
	for _, b := range benches {
		for _, ci := range cfgIdxs {
			for _, tech := range techs {
				for _, l2 := range l2s {
					out = append(out, unit{b: b, ci: ci, tech: tech, l2: l2})
				}
			}
		}
	}
	return out
}

// Sweep executes the evaluation matrix, analyzing up to Options.Workers
// cells concurrently through a bounded worker pool. Cancelling ctx stops
// new cells from starting and aborts cells already in flight — every cell
// analysis polls the context cooperatively — and returns a typed interrupt
// error. The returned Suite lists cells in (program, config, technology)
// order regardless of completion order.
func Sweep(ctx context.Context, o Options) (*Suite, error) {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	us := units(o)
	ctx, span := obs.Start(ctx, "experiment.sweep")
	span.Attr("cells", len(us))
	defer span.End()
	cells := make([]Cell, len(us))
	var progressMu sync.Mutex
	exec := o.Exec
	if exec == nil {
		exec = RunCell
	}
	p := pool.New(o.Workers)
	err := p.ForEach(ctx, len(us), func(ctx context.Context, i int) error {
		u := us[i]
		// The hierarchy axis rides in the options so the CellExec seam —
		// and every remote implementation behind it — stays unchanged.
		uo := o
		uo.L2, uo.L2s = u.l2, nil
		cell, err := exec(ctx, u.b, u.ci, u.tech, uo)
		if err != nil {
			return fmt.Errorf("experiment: %s/%s/%v: %w", u.b.Name, cache.ConfigID(u.ci), u.tech, err)
		}
		cells[i] = cell
		if o.Progress != nil {
			progressMu.Lock()
			fmt.Fprintf(o.Progress, "%-14s %-4s %-4s ins=%-3d τ %.3f  acet %.3f  energy %.3f\n",
				cell.Program, cell.ConfigID, cell.Tech, cell.Inserted,
				ratio(float64(cell.TauOpt), float64(cell.TauOrig)),
				ratio(cell.ACETOpt, cell.ACETOrig),
				ratio(cell.EnergyOpt, cell.EnergyOrig))
			progressMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Suite{Cells: cells}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// RunCell measures one use case. The analysis is cooperatively cancellable
// through ctx; an interrupted cell returns a typed interrupt error and no
// measurements. A cell without an L2 runs its half- and quarter-capacity
// runs in two goroutines after its main run, so it may use two CPUs for
// part of its time; it returns only after both have.
func RunCell(ctx context.Context, b malardalen.Benchmark, cfgIdx int, tech energy.Tech, o Options) (Cell, error) {
	if o.Runs <= 0 {
		o.Runs = 3 // the simulations here and in reducedRun
	}
	cfg := cache.Table2()[cfgIdx]
	cfg.Policy = o.Policy
	if err := cfg.Valid(); err != nil {
		return Cell{}, err
	}
	h := cache.Hier1(cfg)
	if o.L2 != (cache.Config{}) {
		h.L2 = o.L2
	}
	if err := h.Valid(); err != nil {
		return Cell{}, err
	}
	if err := faults.Fire(ctx, "experiment.cell", fmt.Sprintf("%s/%s/%v", b.Name, cache.ConfigID(cfgIdx), tech)); err != nil {
		return Cell{}, err
	}
	ctx, span := obs.Start(ctx, "experiment.cell")
	if span != nil {
		span.Attr("program", b.Name)
		span.Attr("config", cache.ConfigID(cfgIdx))
		span.Attr("tech", tech.String())
		span.Attr("policy", cfg.Policy.String())
		if h.HasL2() {
			span.Attr("l2", h.L2.String())
		}
	}
	defer span.End()
	cell := Cell{
		Program:  b.Name,
		ConfigID: cache.ConfigID(cfgIdx),
		Cfg:      cfg,
		L2Cfg:    h.L2,
		Tech:     tech,
	}

	run, err := optimizeRun(ctx, b, h, tech, o, true)
	if err != nil {
		return cell, err
	}
	mdl, rep, opt, sOrig, sOpt := run.mdl, run.rep, run.opt, run.sOrig, run.sOpt
	cell.Inserted = rep.Inserted
	cell.InsertedL2 = countL2Prefetches(opt)
	cell.Validations = rep.Validations
	cell.Decisions = rep.Decisions
	cell.TauOrig, cell.TauOpt = rep.TauBefore, rep.TauAfter
	cell.MissWOrig, cell.MissWOpt = rep.MissesBefore, rep.MissesAfter
	cell.L2MissWOrig, cell.L2MissWOpt = rep.L2MissesBefore, rep.L2MissesAfter

	// Conditions 2 and 3 (Section 2.3): a transformation that increases the
	// measured ACET or the measured memory energy is rejected wholesale.
	// The paper relies on the WCET/ACET correlation and reports energy
	// savings without ACET increase for every use case; when the
	// correlation fails (strongly data-dependent control flow, or prefetch
	// traffic outweighing the removed misses), shipping the original binary
	// is the conservative choice.
	if rep.Inserted > 0 {
		eOrig := mdl.Energy(sOrig.Account()).TotalPJ()
		eOpt := mdl.Energy(sOpt.Account()).TotalPJ()
		if sOpt.ACETCycles() > sOrig.ACETCycles()*1.002 || eOpt > eOrig*1.002 {
			cell.Cond3Reverted = true
			cell.Inserted = 0
			cell.InsertedL2 = 0
			opt = b.Prog
			cell.TauOpt = cell.TauOrig
			cell.MissWOpt = cell.MissWOrig
			cell.L2MissWOpt = cell.L2MissWOrig
			sOpt = sOrig
		}
	}
	span.Attr("inserted", cell.Inserted)
	recordLevelTallies(span, h, sOpt)
	cell.ACETOrig, cell.ACETOpt = sOrig.ACETCycles(), sOpt.ACETCycles()
	cell.MissRateOrig, cell.MissRateOpt = sOrig.MissRate(), sOpt.MissRate()
	cell.L2MissRateOrig, cell.L2MissRateOpt = sOrig.L2MissRate(), sOpt.L2MissRate()
	cell.FetchesOrig, cell.FetchesOpt = sOrig.FetchesPerRun(), sOpt.FetchesPerRun()
	eo, ep := mdl.Energy(sOrig.Account()), mdl.Energy(sOpt.Account())
	cell.EnergyOrig, cell.EnergyOpt = eo.TotalPJ(), ep.TotalPJ()
	cell.DynOrig, cell.DynOpt = eo.DynamicPJ, ep.DynamicPJ
	cell.StaticOrig, cell.StaticOpt = eo.StaticPJ, ep.StaticPJ

	// Figure 5: re-target the optimization at half and quarter capacity and
	// compare against the original binary on the full-size cache — the
	// "smaller caches through prefetching" experiment.
	if !o.SkipReduced {
		phase := time.Now()
		defer func() { phaseSeconds.With("reduced").Observe(time.Since(phase).Seconds()) }()
		var (
			res  [2]reduced // half, quarter
			ok   [2]bool
			errs [2]error
		)
		run := func(i int) error {
			var err error
			res[i], ok[i], err = reducedRun(ctx, b, h, 2<<i, tech, o)
			return err
		}
		if h.HasL2() {
			// Every reduced run keeps the L2 at full size, so a pair
			// would hold two L2 analyses at once. The runs go in order,
			// and a failed half run skips the quarter.
			for i := range errs {
				if errs[i] = run(i); errs[i] != nil {
					break
				}
			}
		} else {
			// Without an L2 the pair together holds at most 3/4 of the
			// main run's cache state. Each run has its own panic barrier,
			// since a goroutine escapes the caller's, and a failure does
			// not cancel the other run.
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = pool.Recover(func() error { return run(i) })
				}(i)
			}
			wg.Wait()
		}
		for _, err := range errs { // the half run's error first, as in order
			if err != nil {
				return cell, err
			}
		}
		cell.HasHalf, cell.TauHalf, cell.ACETHalf, cell.EnergyHalf = ok[0], res[0].tau, res[0].acet, res[0].energy
		cell.HasQuarter, cell.TauQuarter, cell.ACETQuarter, cell.EnergyQuarter = ok[1], res[1].tau, res[1].acet, res[1].energy
	}
	return cell, nil
}

// optimized is one optimize-and-simulate run of a cell: the program
// optimized for a hierarchy under the hierarchy's energy model, and the
// optimized binary simulated on that hierarchy.
type optimized struct {
	mdl energy.Model
	rep *core.Report
	opt *isa.Program
	// sOpt simulates the optimized binary; sOrig the original one, on a
	// main run only.
	sOpt, sOrig sim.Stats
}

// optimizeRun is the one optimize-and-simulate step behind a cell's main
// run and its reduced runs. A main run (mainRun) also explains its decisions
// when Options.Explain asks for it, simulates the original binary for
// comparison, and records the optimize and simulate phases; a reduced run
// is timed as a whole by its caller.
func optimizeRun(ctx context.Context, b malardalen.Benchmark, h cache.Hierarchy, tech energy.Tech, o Options, mainRun bool) (optimized, error) {
	mdl := energy.NewModelHier(h, tech)
	par := mdl.WCETParams()
	phase := time.Now()
	opt, rep, err := core.OptimizeHier(ctx, b.Prog, h, core.Options{Par: par, ValidationBudget: o.ValidationBudget, Explain: mainRun && o.Explain})
	if mainRun {
		phaseSeconds.With("optimize").Observe(time.Since(phase).Seconds())
	}
	if err != nil {
		return optimized{}, err
	}
	r := optimized{mdl: mdl, rep: rep, opt: opt}
	so := sim.Options{Par: par, Seed: 7, Runs: o.Runs}
	if !mainRun {
		r.sOpt = sim.RunHier(opt, h, so)
		return r, nil
	}
	phase = time.Now()
	r.sOrig = sim.RunHier(b.Prog, h, so)
	r.sOpt = sim.RunHier(opt, h, so)
	phaseSeconds.With("simulate").Observe(time.Since(phase).Seconds())
	return r, nil
}

// reduced is the measurement of one reduced-capacity run (Figure 5): the
// optimized binary's WCET bound, ACET and memory energy on the shrunk
// hierarchy.
type reduced struct {
	tau          int64
	acet, energy float64
}

// reducedRun optimizes the program for the hierarchy with its L1 capacity
// divided by factor and measures it there (the L2, when present, keeps its
// size — the experiment asks whether prefetching lets the *first* level
// shrink). A shrunk configuration that does not exist is reported as
// ok=false (the figure simply lacks the series); a failure to optimize or
// measure an existing one is the cell's error.
func reducedRun(ctx context.Context, b malardalen.Benchmark, h cache.Hierarchy, factor int, tech energy.Tech, o Options) (r reduced, ok bool, err error) {
	small, valid := shrink(h.L1, factor)
	if !valid {
		return reduced{}, false, nil
	}
	h2 := h
	h2.L1 = small
	if err := h2.Valid(); err != nil {
		return reduced{}, false, nil
	}
	run, err := optimizeRun(ctx, b, h2, tech, o, false)
	if err != nil {
		return reduced{}, false, fmt.Errorf("1/%d L1 capacity: %w", factor, err)
	}
	return reduced{tau: run.rep.TauAfter, acet: run.sOpt.ACETCycles(), energy: run.mdl.Energy(run.sOpt.Account()).TotalPJ()}, true, nil
}

// Per-level simulated hit/miss tallies, labeled by cache level. The cell
// span carries the same numbers, so `ucp-bench -v` and traced service
// requests show them per cell while /metrics aggregates them per process.
var (
	levelHits = obs.NewCounterVec("ucp_cache_level_hits_total",
		"Simulated cache hits of the shipped binary, by cache level.", "level")
	levelMisses = obs.NewCounterVec("ucp_cache_level_misses_total",
		"Simulated cache misses of the shipped binary, by cache level.", "level")
	// phaseSeconds times each pipeline phase once per cell — deliberately
	// coarse (one Observe per phase, not per inner iteration) so the
	// disabled-tracing fast path of the cell stays unmeasurable against the
	// seconds-long phases themselves.
	phaseSeconds = obs.NewHistogramVec("ucp_phase_seconds",
		"Wall-clock pipeline phase duration per cell, by phase, in seconds.", "phase")
)

// recordLevelTallies publishes the per-level hit/miss counts of the
// measured (post-Condition-3) binary to the cell span and the metrics
// registry. An L1 miss that the L2 serves counts as an L2 hit; only a miss
// at the last level is a miss of that level.
func recordLevelTallies(span *obs.Span, h cache.Hierarchy, s sim.Stats) {
	if span != nil {
		span.Attr("l1_hits", s.Hits)
		span.Attr("l1_misses", s.Misses)
		if h.HasL2() {
			span.Attr("l2_hits", s.L2Hits)
			span.Attr("l2_misses", s.L2Misses)
		}
	}
	levelHits.With("1").Add(s.Hits)
	levelMisses.With("1").Add(s.Misses)
	if h.HasL2() {
		levelHits.With("2").Add(s.L2Hits)
		levelMisses.With("2").Add(s.L2Misses)
	}
}

// countL2Prefetches counts the prefetch-into-L2 instructions of a program.
func countL2Prefetches(p *isa.Program) int {
	n := 0
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == isa.KindPrefetch && in.Level == 2 {
				n++
			}
		}
	}
	return n
}

func shrink(cfg cache.Config, factor int) (cache.Config, bool) {
	s := cfg
	s.CapacityBytes = cfg.CapacityBytes / factor
	if err := s.Valid(); err != nil {
		return cache.Config{}, false
	}
	return s, true
}
