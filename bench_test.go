package ucp

// These benches regenerate every table and figure of the paper's evaluation
// (run `go test -bench=. -benchmem`) and the ablation studies DESIGN.md
// lists. They are regenerators, not the performance benchmark: that is
// perfbench (BENCHMARK.json). The figure benches default to a representative
// sub-sweep so the whole suite finishes in minutes on one core;
// `cmd/ucp-bench -all` runs the full 37×36×2 sweep.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/hwpref"
	"ucp/internal/locking"
	"ucp/internal/malardalen"
	"ucp/internal/sim"
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
		suite, err = experiment.Sweep(context.Background(), experiment.Options{
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

// BenchmarkHierarchyFrontier regenerates the hierarchy frontier: the
// Figure 3 sub-sweep with an 8KB L2 behind every L1.
func BenchmarkHierarchyFrontier(b *testing.B) {
	var suite *experiment.Suite
	for i := 0; i < b.N; i++ {
		var err error
		suite, err = experiment.Sweep(context.Background(), experiment.Options{
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
	mdl := energy.NewModelHier(cache.Hier1(cfg), energy.Tech45)
	par := mdl.WCETParams()
	out := benchOut(b)
	for i := 0; i < b.N; i++ {
		base := sim.RunHier(prog.Prog, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 3})
		fmt.Fprintf(out, "%-18s missrate=%5.2f%% dram=%d\n", "on-demand", 100*base.MissRate(), base.DRAMReads)
		for _, hw := range hwpref.All() {
			s := sim.RunHier(prog.Prog, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 3, HW: hw})
			fmt.Fprintf(out, "%-18s missrate=%5.2f%% dram=%d\n", hw.Name(), 100*s.MissRate(), s.DRAMReads)
		}
		opt, _, err := core.OptimizeHier(context.Background(), prog.Prog, cache.Hier1(cfg), core.Options{Par: par, ValidationBudget: 120})
		if err != nil {
			b.Fatal(err)
		}
		s := sim.RunHier(opt, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 3})
		fmt.Fprintf(out, "%-18s missrate=%5.2f%% dram=%d\n", "sw-prefetch (ours)", 100*s.MissRate(), s.DRAMReads)
	}
}

// BenchmarkAblationLocking contrasts static cache locking with the unlocked
// prefetching approach: the energy-for-predictability trade of Section 2.2.
func BenchmarkAblationLocking(b *testing.B) {
	prog, _ := malardalen.ByName("adpcm")
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	mdl := energy.NewModelHier(cache.Hier1(cfg), energy.Tech32)
	par := mdl.WCETParams()
	out := benchOut(b)
	for i := 0; i < b.N; i++ {
		sel, err := locking.Select(context.Background(), prog.Prog, cfg, par)
		if err != nil {
			b.Fatal(err)
		}
		locked := sim.RunHier(prog.Prog, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 3, Locked: sel.Blocks})
		unlocked := sim.RunHier(prog.Prog, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 3})
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
	par := energy.NewModelHier(cache.Hier1(cfg), energy.Tech45).WCETParams()
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
			_, rep, err := core.OptimizeHier(context.Background(), prog.Prog, cache.Hier1(cfg), v.opt)
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
