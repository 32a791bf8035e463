// Command perfbench is the repository's benchmark. It runs one workload —
// fig3-sweep, hier-sweep or serve-mix — over a fixed op list for at least
// the requested number of seconds in complete passes, checks every output,
// and prints each metric with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// -trace 1 it instead runs one untraced and one traced pass and prints the
// per-layer ledger. See README.md for the metrics and workloads.
//
//	perfbench -workload fig3-sweep -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/malardalen"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gain holds a cell's optimized/original ratios.
type gain struct{ wcet, acet, energy float64 }

// passResult is the timing of one pass over an op list.
type passResult struct {
	wall   time.Duration
	opMS   []float64
	missMS []float64 // serve-mix cold requests
	hitMS  []float64 // result-cache hits
	gains  map[cell]gain
}

type bench struct {
	suite map[string]malardalen.Benchmark
	cells []cell    // sweeps
	reqs  []request // serve-mix
	// first holds each sweep cell's result from the first pass and
	// coldBodies each cold serve-mix response; later passes must match.
	first      map[cell]experiment.Cell
	coldBodies map[cell][]byte
	setup      time.Duration // median set-up time
	// speed, when set, runs the reference kernel between ops; pass walls
	// exclude it.
	speed *speedMeter

	attempted, failed int
}

var workloads = []string{"fig3-sweep", "hier-sweep", "serve-mix"}

// setupBatches batches of setupBatch set-ups each are timed for setup_s.
const setupBatches, setupBatch = 25, 8

// newBench builds the suite and the workload's op list for seed, and checks
// that a service comes up, as every workload drives one.
func newBench(workload string, seed int64) (*bench, error) {
	b := &bench{suite: map[string]malardalen.Benchmark{}, first: map[cell]experiment.Cell{}, coldBodies: map[cell][]byte{}}
	for _, p := range malardalen.All() {
		b.suite[p.Name] = p
	}
	switch workload {
	case "fig3-sweep":
		b.cells = sweepCells(fig3Programs, false, seed)
	case "hier-sweep":
		b.cells = sweepCells(hierPrograms, true, seed)
	case "serve-mix":
		b.reqs = serveRequests(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	srv.stop()
	return b, nil
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// sweepOptions are the Figure 3 sweep settings: one simulated run, a
// validation budget of 80, reduced-capacity runs on, LRU, 45 nm.
func sweepOptions(c cell) experiment.Options {
	o := experiment.Options{Runs: 1, ValidationBudget: 80}
	if c.L2 {
		o.L2 = l2Config
	}
	return o
}

// pass runs the workload's op list once; with a ledger, traced.
func (b *bench) pass(ctx context.Context, l *ledger) (passResult, error) {
	if b.reqs != nil {
		return b.servePass(ctx, b.reqs, serveTick, l)
	}
	out := passResult{gains: map[cell]gain{}}
	var paused time.Duration
	start := time.Now()
	for _, c := range b.cells {
		b.attempted++
		t0 := time.Now()
		var got experiment.Cell
		var err error
		if l == nil {
			got, err = experiment.RunCell(ctx, b.suite[c.Program], c.Config, energy.Tech45, sweepOptions(c))
		} else {
			got, _, err = l.cell(ctx, b.suite[c.Program], c, sweepOptions(c))
		}
		d := time.Since(t0)
		if err != nil {
			b.fail("%s: %v", c, err)
			continue
		}
		out.opMS = append(out.opMS, ms(d))
		out.gains[c] = gain{
			wcet:   float64(got.TauOpt) / float64(got.TauOrig),
			acet:   got.ACETOpt / got.ACETOrig,
			energy: got.EnergyOpt / got.EnergyOrig,
		}
		bad := checkGuarantees(got.TauOrig, got.TauOpt, got.ACETOrig, got.ACETOpt, got.EnergyOrig, got.EnergyOpt)
		if prev, ok := b.first[c]; ok && !reflect.DeepEqual(prev, got) {
			bad = "result differs between passes"
		}
		b.first[c] = got
		if bad != "" {
			b.fail("%s: %s", c, bad)
		}
		paused += b.speed.tick()
	}
	out.wall = time.Since(start) - paused
	out.missMS = out.opMS // every sweep cell is an uncached analysis
	return out, nil
}

// checkGuarantees checks a cell against Theorem 1 (τ_w never increases)
// and the Condition 3 guard (ACET and energy at most 0.2% above the
// original) and returns the violation, if any.
func checkGuarantees(tauOrig, tauOpt int64, acetOrig, acetOpt, eOrig, eOpt float64) string {
	switch {
	case tauOpt > tauOrig:
		return fmt.Sprintf("Theorem 1 violated: τ_w %d > %d", tauOpt, tauOrig)
	case acetOpt > acetOrig*1.002:
		return fmt.Sprintf("Condition 3 violated: ACET %g > %g", acetOpt, acetOrig)
	case eOpt > eOrig*1.002:
		return fmt.Sprintf("Condition 3 violated: energy %g > %g", eOpt, eOrig)
	}
	return ""
}

// measure runs complete passes until seconds have elapsed and returns the
// end-to-end metrics.
func (b *bench) measure(ctx context.Context, seconds time.Duration, m map[string]metric) error {
	var all passResult
	var probe passResult
	var fProbe float64
	if b.reqs == nil {
		// The sweeps' hit probe runs first, on a freshly collected small
		// heap, so that its latencies do not depend on the garbage the last
		// cell left behind. Its hits are rescaled by the speed measured
		// while it ran.
		runtime.GC()
		b.speed = &speedMeter{}
		var err error
		if probe, err = b.servePass(ctx, probeRequests(), probeTick, nil); err != nil {
			return err
		}
		fProbe = b.speed.factor()
	}
	b.speed = &speedMeter{}
	cpu0 := cpuTime()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < seconds; n++ {
		p, err := b.pass(ctx, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %d ops in %.3f s\n", n, len(p.opMS), p.wall.Seconds())
		all.wall += p.wall
		all.opMS = append(all.opMS, p.opMS...)
		all.missMS = append(all.missMS, p.missMS...)
		all.hitMS = append(all.hitMS, p.hitMS...)
		all.gains = p.gains
	}
	cpu := cpuTime() - cpu0 - b.speed.spent
	f := b.speed.factor()
	fHit := f
	if b.reqs == nil {
		all.hitMS, fHit = probe.hitMS, fProbe
	}
	ops := float64(len(all.opMS))
	// The statistics an earlier design reported, for README.md's
	// post-mortem: a percentile across heterogeneous ops, and throughput
	// over a fixed time window cut into a pass.
	done, elapsed := 0, 0.0
	for _, d := range all.opMS {
		if elapsed += d; elapsed > 10e3 {
			break
		}
		done++
	}
	fmt.Fprintf(os.Stderr, "perfbench: diag op_p50_ms=%g window10s_ops_per_s=%g raw_ops_per_s=%g speed_factor=%g\n",
		quantile(all.opMS, 0.5), float64(done)/10, ops/all.wall.Seconds(), f)
	m["ops_per_s"] = metric{ops / all.wall.Seconds() * f, "1/s"}
	m["op_geomean_ms"] = metric{geomean(all.opMS) / f, "ms"}
	m["cpu_ms_per_op"] = metric{ms(cpu) / ops / f, "ms"}
	m["miss_geomean_ms"] = metric{geomean(all.missMS) / f, "ms"}
	m["hit_p50_ms"] = metric{quantile(all.hitMS, 0.50) / fHit, "ms"}
	m["hit_p95_ms"] = metric{quantile(all.hitMS, 0.95) / fHit, "ms"}
	m["setup_s"] = metric{b.setup.Seconds(), "s"}
	// Summed in a fixed order, so the gains repeat to the last digit.
	cells := make([]cell, 0, len(all.gains))
	for c := range all.gains {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].String() < cells[j].String() })
	var g gain
	for _, c := range cells {
		g.wcet += 100 * (1 - all.gains[c].wcet)
		g.acet += 100 * (1 - all.gains[c].acet)
		g.energy += 100 * (1 - all.gains[c].energy)
	}
	n := float64(len(cells))
	m["wcet_gain_pct"] = metric{g.wcet / n, "%"}
	m["acet_gain_pct"] = metric{g.acet / n, "%"}
	m["energy_gain_pct"] = metric{g.energy / n, "%"}
	return nil
}

// trace runs one untraced and one traced pass and returns the per-layer
// metrics, with the tracing overhead measured against the untraced pass.
func (b *bench) trace(ctx context.Context, m map[string]metric) error {
	plain, err := b.pass(ctx, nil)
	if err != nil {
		return err
	}
	l := newLedger()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced, err := b.pass(ctx, l)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	extra := l.extra // the hit probe below is not part of traced.wall
	if b.reqs == nil {
		if _, err := b.servePass(ctx, probeRequests(), probeTick, l); err != nil {
			return err
		}
	}
	l.metrics(m)
	m["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	m["trace.overhead_pct"] = metric{100 * ((traced.wall-extra).Seconds()/plain.wall.Seconds() - 1), "%"}
	m["trace.extra_ms"] = metric{float64(extra) / 1e6, "ms"}
	return nil
}

func run(workload string, seed int64, seconds time.Duration, traced bool) (result, error) {
	m := map[string]metric{}
	// One set-up takes a few milliseconds, near the timer and scheduler
	// noise, so set-ups are timed in batches, each from a collected heap,
	// and the median batch mean is rescaled by the speed the reference
	// kernel measures between batches.
	var b *bench
	var setups []float64
	speed := &speedMeter{}
	for i := 0; i < setupBatches; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < setupBatch; j++ {
			nb, err := newBench(workload, seed)
			if err != nil {
				return result{}, err
			}
			b = nb
		}
		setups = append(setups, float64(time.Since(t0))/setupBatch)
		speed.tick()
	}
	b.setup = time.Duration(quantile(setups, 0.5) / speed.factor())
	fmt.Fprintf(os.Stderr, "perfbench: setup raw_ms=%g speed_factor=%g\n", quantile(setups, 0.5)/1e6, speed.factor())
	ctx := context.Background()
	if traced {
		if err := b.trace(ctx, m); err != nil {
			return result{}, err
		}
	} else {
		if err := b.measure(ctx, seconds, m); err != nil {
			return result{}, err
		}
		m["peak_mem_mb"] = metric{peakRSSMB(), "MB"}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

func main() {
	workload := flag.String("workload", "", "fig3-sweep, hier-sweep or serve-mix")
	seed := flag.Int64("seed", 1, "seed of the op order and the serve-mix request sequence")
	seconds := flag.Int("seconds", 20, "minimum measured time; whole passes are run")
	traced := flag.Int("trace", 0, "1 = print the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func geomean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
