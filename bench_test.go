package ucp

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus the ablation studies
// DESIGN.md lists and micro-benchmarks of the analysis stack. The figure
// benches default to a representative sub-sweep so the whole suite finishes
// in minutes on one core; `cmd/ucp-bench -all` runs the full 37×36×2 sweep.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/hwpref"
	"ucp/internal/ipet"
	"ucp/internal/isa"
	"ucp/internal/locking"
	"ucp/internal/malardalen"
	"ucp/internal/sim"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// benchPrograms is the representative program subset used by the figure
// benches: two giants, the unrolled DCTs, branchy codecs, and kernels.
var benchPrograms = []string{"adpcm", "compress", "crc", "fdct", "statemate"}

// benchConfigs samples the capacity ladder at both block sizes and all
// associativities: k1, k5, k9, k14, k27, k33.
var benchConfigs = []int{0, 4, 8, 13, 26, 32}

func benchSweep(b *testing.B, programs []string, configs []int, techs []energy.Tech) *experiment.Suite {
	b.Helper()
	var suite *experiment.Suite
	for i := 0; i < b.N; i++ {
		var err error
		suite, err = experiment.Run(experiment.Options{
			Programs:         programs,
			Configs:          configs,
			Techs:            techs,
			Runs:             1,
			ValidationBudget: 80,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return suite
}

// BenchmarkTable1Programs regenerates Table 1: the 37 benchmark programs.
func BenchmarkTable1Programs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all := malardalen.All()
		if len(all) != 37 {
			b.Fatal("suite must hold 37 programs")
		}
	}
	experiment.Table1(io.Discard)
}

// BenchmarkTable2Configs regenerates Table 2: the 36 cache configurations.
func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(cache.Table2()) != 36 {
			b.Fatal("Table 2 must hold 36 configurations")
		}
	}
	experiment.Table2(io.Discard)
}

// BenchmarkFigure3 regenerates Figure 3: average improvement of energy,
// ACET and WCET per cache size.
func BenchmarkFigure3(b *testing.B) {
	suite := benchSweep(b, benchPrograms, benchConfigs, []energy.Tech{energy.Tech45})
	suite.Figure3(benchOut(b))
}

// BenchmarkFigure3Policy regenerates the Figure 3 sub-sweep once per cache
// replacement policy, so the cost of the policy-generic analysis seam is
// tracked per policy (BENCH_PR3.json): LRU runs the exact classical
// transfers, FIFO and PLRU the conservative ones of DESIGN.md §9.
func BenchmarkFigure3Policy(b *testing.B) {
	for _, pol := range cache.Policies() {
		b.Run(pol.String(), func(b *testing.B) {
			var suite *experiment.Suite
			for i := 0; i < b.N; i++ {
				var err error
				suite, err = experiment.Run(experiment.Options{
					Programs:         benchPrograms,
					Configs:          benchConfigs,
					Techs:            []energy.Tech{energy.Tech45},
					Policy:           pol,
					Runs:             1,
					ValidationBudget: 80,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			suite.Figure3(benchOut(b))
		})
	}
}

// BenchmarkHierarchyFrontier regenerates the hierarchy frontier: the
// Figure 3 sub-sweep with an 8KB L2 behind every L1 (BENCH_PR8.json), so
// the cost of the two-level analysis stack — per-level abstract
// interpretation, three-outcome pricing, the L2 candidate phase — is
// tracked next to the single-level sweep it extends.
func BenchmarkHierarchyFrontier(b *testing.B) {
	var suite *experiment.Suite
	for i := 0; i < b.N; i++ {
		var err error
		suite, err = experiment.Run(experiment.Options{
			Programs:         benchPrograms,
			Configs:          benchConfigs,
			Techs:            []energy.Tech{energy.Tech45},
			L2:               cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192},
			Runs:             1,
			ValidationBudget: 80,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	suite.HierarchyFrontier(benchOut(b))
}

// BenchmarkFigure4 regenerates Figure 4: the miss-rate impact per cache
// size.
func BenchmarkFigure4(b *testing.B) {
	suite := benchSweep(b, benchPrograms, benchConfigs, []energy.Tech{energy.Tech45})
	suite.Figure4(benchOut(b))
}

// BenchmarkFigure5 regenerates Figure 5: the optimized binary on half and
// quarter capacity versus the original on the full capacity.
func BenchmarkFigure5(b *testing.B) {
	suite := benchSweep(b, benchPrograms, []int{13, 21, 26, 32}, []energy.Tech{energy.Tech45})
	suite.Figure5(benchOut(b))
}

// BenchmarkFigure7 regenerates Figure 7: the per-use-case WCET ratio at
// 32nm (Inequation 12) — the Theorem-1 guarantee made visible.
func BenchmarkFigure7(b *testing.B) {
	suite := benchSweep(b, benchPrograms, benchConfigs, []energy.Tech{energy.Tech32})
	for _, c := range suite.Cells {
		if c.TauOpt > c.TauOrig {
			b.Fatalf("WCET regression at %s/%s — Theorem 1 violated", c.Program, c.ConfigID)
		}
	}
	suite.Figure7(benchOut(b))
}

// BenchmarkFigure8 regenerates Figure 8: the executed-instruction ratio.
func BenchmarkFigure8(b *testing.B) {
	suite := benchSweep(b, benchPrograms, benchConfigs, []energy.Tech{energy.Tech45})
	suite.Figure8(benchOut(b))
}

// BenchmarkAblationHardwarePrefetch compares the hardware prefetching
// mechanisms of Section 2 against on-demand fetching and the paper's
// software approach on one mid-pressure cell.
func BenchmarkAblationHardwarePrefetch(b *testing.B) {
	prog, _ := malardalen.ByName("fdct")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	mdl := energy.NewModel(cfg, energy.Tech45)
	par := mdl.WCETParams()
	out := benchOut(b)
	for i := 0; i < b.N; i++ {
		base := sim.Run(prog.Prog, cfg, sim.Options{Par: par, Runs: 1, Seed: 3})
		fmt.Fprintf(out, "%-18s missrate=%5.2f%% dram=%d\n", "on-demand", 100*base.MissRate(), base.DRAMReads)
		for _, hw := range hwpref.All() {
			s := sim.Run(prog.Prog, cfg, sim.Options{Par: par, Runs: 1, Seed: 3, HW: hw})
			fmt.Fprintf(out, "%-18s missrate=%5.2f%% dram=%d\n", hw.Name(), 100*s.MissRate(), s.DRAMReads)
		}
		opt, _, err := core.Optimize(context.Background(), prog.Prog, cfg, core.Options{Par: par, ValidationBudget: 120})
		if err != nil {
			b.Fatal(err)
		}
		s := sim.Run(opt, cfg, sim.Options{Par: par, Runs: 1, Seed: 3})
		fmt.Fprintf(out, "%-18s missrate=%5.2f%% dram=%d\n", "sw-prefetch (ours)", 100*s.MissRate(), s.DRAMReads)
	}
}

// BenchmarkAblationLocking contrasts static cache locking with the unlocked
// prefetching approach: the energy-for-predictability trade of Section 2.2.
func BenchmarkAblationLocking(b *testing.B) {
	prog, _ := malardalen.ByName("adpcm")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	mdl := energy.NewModel(cfg, energy.Tech32)
	par := mdl.WCETParams()
	out := benchOut(b)
	for i := 0; i < b.N; i++ {
		sel, err := locking.Select(context.Background(), prog.Prog, cfg, par)
		if err != nil {
			b.Fatal(err)
		}
		locked := sim.Run(prog.Prog, cfg, sim.Options{Par: par, Runs: 1, Seed: 3, Locked: sel.Blocks})
		unlocked := sim.Run(prog.Prog, cfg, sim.Options{Par: par, Runs: 1, Seed: 3})
		eL := mdl.Energy(locked.Account()).TotalPJ()
		eU := mdl.Energy(unlocked.Account()).TotalPJ()
		fmt.Fprintf(out, "locked:   acet=%d energy=%.0fnJ (bound %d, exact)\n", locked.Cycles, eL/1e3, sel.TauW)
		fmt.Fprintf(out, "unlocked: acet=%d energy=%.0fnJ\n", unlocked.Cycles, eU/1e3)
	}
}

// BenchmarkAblationCriterion disables individual pieces of the joint
// improvement criterion (Section 4.3) on one cell and reports the effect.
func BenchmarkAblationCriterion(b *testing.B) {
	prog, _ := malardalen.ByName("fdct")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	par := energy.NewModel(cfg, energy.Tech45).WCETParams()
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full-criterion", core.Options{Par: par, ValidationBudget: 120}},
		{"no-effectiveness", core.Options{Par: par, ValidationBudget: 80, DisableEffectiveness: true}},
		{"no-miss-check", core.Options{Par: par, ValidationBudget: 80, DisableMissCheck: true}},
		{"pad-to-block", core.Options{Par: par, ValidationBudget: 80, PadToBlock: true}},
		{"no-validation", core.Options{Par: par, MaxInsertions: 40, DisableValidation: true}},
	}
	out := benchOut(b)
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			_, rep, err := core.Optimize(context.Background(), prog.Prog, cfg, v.opt)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Fprintf(out, "%-17s ins=%-3d τ %d->%d misses %d->%d\n",
				v.name, rep.Inserted, rep.TauBefore, rep.TauAfter, rep.MissesBefore, rep.MissesAfter)
		}
	}
}

// benchOut prints the regenerated series once (on the verbose first
// iteration) and discards repeats.
func benchOut(b *testing.B) io.Writer {
	if testing.Verbose() {
		return testingWriter{b}
	}
	return io.Discard
}

type testingWriter struct{ b *testing.B }

func (w testingWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// --- micro-benchmarks of the analysis stack ---

func BenchmarkVIVUExpand(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vivu.Expand(p.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAbstractInterpretation(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	x, err := vivu.Expand(p.Prog)
	if err != nil {
		b.Fatal(err)
	}
	lay := isa.NewLayout(p.Prog)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		absint.Analyze(context.Background(), x, lay, cfg, 16)
	}
}

// BenchmarkAnalyzeXFull measures one from-scratch analysis of the mutated
// program — the cost every validation paid before incremental re-validation.
func BenchmarkAnalyzeXFull(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	prog := p.Prog.Clone()
	x, err := vivu.Expand(prog)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcet.AnalyzeX(context.Background(), x, cfg, par); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIncrementalAnchor picks the insertion anchor the incremental
// benchmark toggles a prefetch at: the middle block of the program, so
// roughly half the layout shifts per mutation — the average case for the
// optimizer's trial insertions.
func benchIncrementalAnchor(prog *isa.Program) isa.InstrRef {
	b := prog.Blocks[len(prog.Blocks)/2]
	for len(b.Instrs) < 2 {
		b = prog.Blocks[(b.ID+1)%len(prog.Blocks)]
	}
	return isa.InstrRef{Block: b.ID, Index: len(b.Instrs) - 2}
}

// BenchmarkAnalyzeXIncremental measures the optimizer's steady state: each
// iteration mutates the program (toggling a prefetch at a mid-program
// anchor, shifting half the layout) and re-validates with AnalyzeXFrom
// seeded from the previous result.
func BenchmarkAnalyzeXIncremental(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	prog := p.Prog.Clone()
	x, err := vivu.Expand(prog)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	anchor := benchIncrementalAnchor(prog)
	target := isa.InstrRef{Block: prog.Blocks[0].ID, Index: 0}
	prev, err := wcet.AnalyzeX(context.Background(), x, cfg, par)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			prog.InsertInstr(anchor, isa.Instr{Kind: isa.KindPrefetch, Target: target})
		} else {
			prog.RemoveInstr(anchor)
		}
		prev, err = wcet.AnalyzeXFrom(context.Background(), x, cfg, par, prev)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// densestState returns the converged in-state with the most entries — the
// worst case for Clone and Join.
func densestState(res *absint.Result) *absint.State {
	var best *absint.State
	bestN := -1
	for _, st := range res.In {
		if st == nil {
			continue
		}
		if n := st.Entries(); n > bestN {
			best, bestN = st, n
		}
	}
	return best
}

func BenchmarkStateClone(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	x, err := vivu.Expand(p.Prog)
	if err != nil {
		b.Fatal(err)
	}
	lay := isa.NewLayout(p.Prog)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	res, err := absint.Analyze(context.Background(), x, lay, cfg, 16)
	if err != nil {
		b.Fatal(err)
	}
	st := densestState(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Clone()
	}
}

func BenchmarkStateJoin(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	x, err := vivu.Expand(p.Prog)
	if err != nil {
		b.Fatal(err)
	}
	lay := isa.NewLayout(p.Prog)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	res, err := absint.Analyze(context.Background(), x, lay, cfg, 16)
	if err != nil {
		b.Fatal(err)
	}
	a := densestState(res)
	c := res.In[x.Entry]
	for _, st := range res.In {
		if st != nil && st != a {
			c = st
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		absint.Join(a, c)
	}
}

func BenchmarkWCETStructural(b *testing.B) {
	p, _ := malardalen.ByName("statemate")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wcet.Analyze(context.Background(), p.Prog, cfg, par); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPETILP(b *testing.B) {
	p, _ := malardalen.ByName("ludcmp")
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	res, err := wcet.Analyze(context.Background(), p.Prog, cfg, par)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipet.Solve(res.X, res.Cost, res.Extra); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeMid(b *testing.B) {
	p, _ := malardalen.ByName("fdct")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	par := energy.NewModel(cfg, energy.Tech45).WCETParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Optimize(context.Background(), p.Prog, cfg, core.Options{Par: par, ValidationBudget: 120}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	p, _ := malardalen.ByName("adpcm")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	b.ReportAllocs()
	var fetches int64
	for i := 0; i < b.N; i++ {
		s := sim.Run(p.Prog, cfg, sim.Options{Par: par, Runs: 1, Seed: int64(i)})
		fetches += s.Fetches
	}
	b.ReportMetric(float64(fetches)/float64(b.N), "fetches/run")
}

func BenchmarkConcreteCache(b *testing.B) {
	st := cache.NewState(cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 4096})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Access(uint64(i*7) % 1024)
	}
}
