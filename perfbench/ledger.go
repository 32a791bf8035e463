package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/sim"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// A ledger is the per-layer record of a traced run. Spans are the
// benchmark's own, put around the public calls of each layer: a cell is a
// root span whose children are leaf calls, and a root's self time is its
// duration minus the time its children cover.
type ledger struct {
	ns     map[string]time.Duration // self time per span name
	alloc  map[string]uint64        // TotalAlloc delta per span name
	counts map[string]float64
	// children accumulates leaf time inside the open root span.
	children time.Duration
	// extra is time spent on calls the untraced run does not make: the
	// probes that repeat work the optimizer does internally, and on
	// serve-mix the recomposed cell behind each cold request.
	extra time.Duration
	ms    runtime.MemStats
}

func newLedger() *ledger {
	return &ledger{ns: map[string]time.Duration{}, alloc: map[string]uint64{}, counts: map[string]float64{}}
}

// span runs f as a leaf span called name.
func (l *ledger) span(name string, f func() error) error {
	runtime.ReadMemStats(&l.ms)
	a0 := l.ms.TotalAlloc
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&l.ms)
	l.ns[name] += d
	l.alloc[name] += l.ms.TotalAlloc - a0
	l.children += d
	return err
}

// probe is a span whose work the untraced run does not do.
func (l *ledger) probe(name string, f func() error) error {
	c := l.children
	err := l.span(name, f)
	l.extra += l.children - c
	return err
}

func (l *ledger) add(name string, v float64) { l.counts[name] += v }

// unknownShare adds r's NotClassified references and all its references to
// the tallies prefix.unknown and prefix.refs.
func (l *ledger) unknownShare(prefix string, r *absint.Result) {
	for _, row := range r.Class {
		for _, c := range row {
			if c == absint.NotClassified {
				l.add(prefix+".unknown", 1)
			}
		}
		l.add(prefix+".refs", float64(len(row)))
	}
}

// cell recomposes experiment.RunCell for cell c from the public calls of
// each layer, under a root span. Before the RunCell path proper it probes
// the layers the optimizer calls internally — vivu.Expand, the L1 and L2
// abstract interpretations, and the seed WCET analysis — once each, so
// their cost shows on its own. The returned Cell equals RunCell's field for
// field (TestLedgerMatchesRunCell), so the ledger describes the work the
// untraced run does. It returns the cell and the root span's duration less
// the probes, the time RunCell itself would take.
func (l *ledger) cell(ctx context.Context, b malardalen.Benchmark, c cell, o experiment.Options) (experiment.Cell, time.Duration, error) {
	start := time.Now()
	l.children = 0
	extra0 := l.extra
	out, err := l.compose(ctx, b, c, o)
	total := time.Since(start)
	l.ns["experiment.cell"] += total - l.children
	return out, total - (l.extra - extra0), err
}

func (l *ledger) compose(ctx context.Context, b malardalen.Benchmark, c cell, o experiment.Options) (experiment.Cell, error) {
	cfg := cache.Table2()[c.Config]
	cfg.Policy = o.Policy
	h := cache.Hier1(cfg)
	h.L2 = o.L2
	tech := energy.Tech45
	mdl := energy.NewModelHier(h, tech)
	par := mdl.WCETParams()
	out := experiment.Cell{Program: b.Name, ConfigID: cache.ConfigID(c.Config), Cfg: cfg, L2Cfg: h.L2, Tech: tech}

	var x *vivu.Prog
	if err := l.probe("vivu.expand", func() (err error) { x, err = vivu.Expand(b.Prog); return err }); err != nil {
		return out, err
	}
	l.add("vivu.xblocks", float64(len(x.Blocks)))
	lay := isa.NewLayout(x.Prog)
	var ai *absint.Result
	if err := l.probe("absint.l1", func() (err error) {
		ai, err = absint.Analyze(ctx, x, lay, h.L1, int(par.Lambda))
		return err
	}); err != nil {
		return out, err
	}
	l.unknownShare("absint.l1", ai)
	if h.HasL2() {
		var ai2 *absint.Result
		if err := l.probe("absint.l2", func() (err error) {
			ai2, err = absint.AnalyzeL2(ctx, x, lay, h, int(par.Lambda), ai)
			return err
		}); err != nil {
			return out, err
		}
		l.unknownShare("absint.l2", ai2)
	}
	if err := l.probe("wcet.seed", func() error { _, err := wcet.AnalyzeXHier(ctx, x, h, par); return err }); err != nil {
		return out, err
	}

	opt, rep, err := l.optimize(ctx, "core.optimize", b.Prog, h, core.Options{Par: par, ValidationBudget: o.ValidationBudget, Explain: o.Explain})
	if err != nil {
		return out, err
	}
	l.add("core.validations", float64(rep.Validations))
	l.add("core.candidates", float64(rep.Candidates))
	l.add("core.inserted", float64(rep.Inserted))
	l.add("core.rejected_validation", float64(rep.RejectedValidation))
	l.add("core.pruned", float64(rep.Pruned))
	l.add("core.passes", float64(rep.Passes))
	budget := o.ValidationBudget
	if budget == 0 {
		budget = 700 // core.OptimizeHier's default
	}
	if rep.Validations >= budget {
		l.add("core.budget_exhausted_cells", 1)
	}
	out.Inserted, out.InsertedL2, out.Validations, out.Decisions = rep.Inserted, countL2Prefetches(opt), rep.Validations, rep.Decisions
	out.TauOrig, out.TauOpt = rep.TauBefore, rep.TauAfter
	out.MissWOrig, out.MissWOpt = rep.MissesBefore, rep.MissesAfter
	out.L2MissWOrig, out.L2MissWOpt = rep.L2MissesBefore, rep.L2MissesAfter

	runs := o.Runs
	if runs <= 0 {
		runs = 3 // RunCell's default
	}
	so := sim.Options{Par: par, Seed: 7, Runs: runs}
	sOrig, sOpt := l.simulate(b.Prog, h, so), l.simulate(opt, h, so)
	// Condition 3, as experiment.RunCell applies it.
	if rep.Inserted > 0 {
		eOrig, eOpt := mdl.Energy(sOrig.Account()).TotalPJ(), mdl.Energy(sOpt.Account()).TotalPJ()
		if sOpt.ACETCycles() > sOrig.ACETCycles()*1.002 || eOpt > eOrig*1.002 {
			out.Cond3Reverted = true
			out.Inserted, out.InsertedL2 = 0, 0
			out.TauOpt, out.MissWOpt, out.L2MissWOpt = out.TauOrig, out.MissWOrig, out.L2MissWOrig
			sOpt = sOrig
		}
	}
	out.ACETOrig, out.ACETOpt = sOrig.ACETCycles(), sOpt.ACETCycles()
	out.MissRateOrig, out.MissRateOpt = sOrig.MissRate(), sOpt.MissRate()
	out.L2MissRateOrig, out.L2MissRateOpt = sOrig.L2MissRate(), sOpt.L2MissRate()
	out.FetchesOrig, out.FetchesOpt = sOrig.FetchesPerRun(), sOpt.FetchesPerRun()
	eo, ep := mdl.Energy(sOrig.Account()), mdl.Energy(sOpt.Account())
	out.EnergyOrig, out.EnergyOpt = eo.TotalPJ(), ep.TotalPJ()
	out.DynOrig, out.DynOpt = eo.DynamicPJ, ep.DynamicPJ
	out.StaticOrig, out.StaticOpt = eo.StaticPJ, ep.StaticPJ

	if o.SkipReduced {
		return out, nil
	}
	for _, factor := range []int{2, 4} {
		small := h
		small.L1.CapacityBytes /= factor
		if small.Valid() != nil {
			continue
		}
		m := energy.NewModelHier(small, tech)
		p := m.WCETParams()
		opt, rep, err := l.optimize(ctx, "core.reduced", b.Prog, small, core.Options{Par: p, ValidationBudget: o.ValidationBudget})
		if interrupt.Is(err) {
			return out, err
		}
		if err != nil {
			continue // RunCell leaves the series out
		}
		var s sim.Stats
		l.span("core.reduced", func() error {
			s = sim.RunHier(opt, small, sim.Options{Par: p, Seed: 7, Runs: runs})
			return nil
		})
		tau, acet, e := rep.TauAfter, s.ACETCycles(), m.Energy(s.Account()).TotalPJ()
		if factor == 2 {
			out.HasHalf, out.TauHalf, out.ACETHalf, out.EnergyHalf = true, tau, acet, e
		} else {
			out.HasQuarter, out.TauQuarter, out.ACETQuarter, out.EnergyQuarter = true, tau, acet, e
		}
	}
	return out, nil
}

// optimize runs core.OptimizeHier as span name, counting the WCET analyses
// it runs from scratch and incrementally.
func (l *ledger) optimize(ctx context.Context, name string, p *isa.Program, h cache.Hierarchy, o core.Options) (opt *isa.Program, rep *core.Report, err error) {
	before := wcet.Stats()
	err = l.span(name, func() (err error) {
		opt, rep, err = core.OptimizeHier(ctx, p, h, o)
		return err
	})
	after := wcet.Stats()
	l.add("wcet.full_analyses", float64(after.Full-before.Full))
	l.add("wcet.incremental_analyses", float64(after.Incremental-before.Incremental))
	return opt, rep, err
}

func (l *ledger) simulate(p *isa.Program, h cache.Hierarchy, o sim.Options) sim.Stats {
	var s sim.Stats
	l.span("sim.run", func() error { s = sim.RunHier(p, h, o); return nil })
	l.add("sim.fetches", float64(s.Fetches))
	return s
}

// countL2Prefetches counts the prefetch-into-L2 instructions of p, as
// experiment.RunCell reports them in Cell.InsertedL2.
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

// metrics renders the ledger as the per-layer metrics. Times are totals
// over the traced pass.
func (l *ledger) metrics(m map[string]metric) {
	ms := func(name string) float64 { return float64(l.ns[name]) / 1e6 }
	m["vivu.expand_ms"] = metric{ms("vivu.expand"), "ms"}
	m["vivu.xblocks"] = metric{l.counts["vivu.xblocks"], "count"}
	m["absint.l1_ms"] = metric{ms("absint.l1"), "ms"}
	m["absint.l2_ms"] = metric{ms("absint.l2"), "ms"}
	m["absint.l1_unknown_share"] = metric{ratio(l.counts["absint.l1.unknown"], l.counts["absint.l1.refs"]), "ratio"}
	m["absint.l2_unknown_share"] = metric{ratio(l.counts["absint.l2.unknown"], l.counts["absint.l2.refs"]), "ratio"}
	m["wcet.seed_ms"] = metric{ms("wcet.seed"), "ms"}
	m["wcet.assemble_ms"] = metric{ms("wcet.seed") - ms("absint.l1") - ms("absint.l2"), "ms"}
	full, inc := l.counts["wcet.full_analyses"], l.counts["wcet.incremental_analyses"]
	m["wcet.full_analyses"] = metric{full, "count"}
	m["wcet.incremental_analyses"] = metric{inc, "count"}
	m["wcet.incremental_share"] = metric{ratio(inc, full+inc), "ratio"}
	m["core.optimize_ms"] = metric{ms("core.optimize"), "ms"}
	m["core.reduced_ms"] = metric{ms("core.reduced"), "ms"}
	m["core.ms_per_validation"] = metric{ratio(ms("core.optimize"), l.counts["core.validations"]), "ms"}
	for _, c := range []string{"validations", "candidates", "inserted", "rejected_validation", "pruned", "passes", "budget_exhausted_cells"} {
		m["core."+c] = metric{l.counts["core."+c], "count"}
	}
	m["core.validations_per_insert"] = metric{ratio(l.counts["core.validations"], l.counts["core.inserted"]), "ratio"}
	m["sim.run_ms"] = metric{ms("sim.run"), "ms"}
	m["sim.fetches"] = metric{l.counts["sim.fetches"], "count"}
	m["sim.ns_per_fetch"] = metric{ratio(float64(l.ns["sim.run"]), l.counts["sim.fetches"]), "ns"}
	m["experiment.cell_self_ms"] = metric{ms("experiment.cell"), "ms"}
	m["isa.fingerprint_us"] = metric{float64(l.ns["isa.fingerprint"]) / 1e3, "us"}
	m["service.hit_ms"] = metric{ms("service.hit"), "ms"}
	m["service.miss_ms"] = metric{ms("service.miss"), "ms"}
	m["service.overhead_ms"] = metric{ms("service.overhead"), "ms"}
	m["service.cache_hits"] = metric{l.counts["service.cache_hits"], "count"}
	m["service.cache_misses"] = metric{l.counts["service.cache_misses"], "count"}
	allocs := map[string]uint64{}
	for name, a := range l.alloc {
		layer, _, _ := strings.Cut(name, ".")
		allocs[layer] += a
	}
	for _, layer := range []string{"vivu", "absint", "wcet", "core", "sim", "isa", "service"} {
		m[layer+".alloc_mb"] = metric{float64(allocs[layer]) / (1 << 20), "MB"}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
