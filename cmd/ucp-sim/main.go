// Command ucp-sim runs the trace-driven simulator on one benchmark program —
// original and optimized — and reports ACET, miss rate, prefetch traffic,
// and the energy breakdown, optionally against a hardware prefetcher or a
// statically locked cache.
//
// Usage:
//
//	ucp-sim -program adpcm -config k2 -tech 32nm [-policy lru|fifo|plru] [-runs 5] [-hw next-line-tagged] [-locked]
//	ucp-sim -program adpcm -config k1 -l2-assoc 4 -l2-block-bytes 32 -l2-capacity-bytes 8192
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ucp/internal/cliutil"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/hwpref"
	"ucp/internal/locking"
	"ucp/internal/sim"
)

func main() {
	var (
		program = flag.String("program", "adpcm", "benchmark program name")
		config  = flag.String("config", "k2", "cache configuration label k1..k36")
		policy  = flag.String("policy", "lru", "cache replacement policy: lru, fifo, or plru")
		tech    = flag.String("tech", "45nm", "process technology: 45nm or 32nm")
		runs    = flag.Int("runs", 3, "average-case executions")
		seed    = flag.Int64("seed", 7, "driver seed")
		hwName  = flag.String("hw", "", "attach a hardware prefetcher baseline (e.g. next-line-tagged)")
		locked  = flag.Bool("locked", false, "also report the statically locked cache baseline")
	)
	l2Flag := cliutil.L2Flags(nil)
	flag.Parse()

	b, err := cliutil.Benchmark(*program)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	l2, err := l2Flag()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	_, h, tn, err := cliutil.Cell(*config, *policy, *tech, l2)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	mdl := energy.NewModelHier(h, tn)
	par := mdl.WCETParams()
	base := sim.Options{Par: par, Seed: *seed, Runs: *runs}

	if h.HasL2() {
		fmt.Printf("program %s on %s %v + L2 %v at %s (%d runs)\n\n", b.Name, *config, h.L1, h.L2, tn, *runs)
	} else {
		fmt.Printf("program %s on %s %v at %s (%d runs)\n\n", b.Name, *config, h.L1, tn, *runs)
	}
	report := func(label string, s sim.Stats) {
		e := mdl.Energy(s.Account())
		fmt.Printf("%-22s acet=%-9.0f missrate=%6.2f%%  dram=%-7d pft(iss/red)=%d/%d  energy=%.1fnJ (dyn %.1f + static %.1f)",
			label, s.ACETCycles(), 100*s.MissRate(), s.DRAMReads,
			s.PrefetchIssued, s.PrefetchRedundant,
			e.TotalPJ()/1e3/float64(s.Runs), e.DynamicPJ/1e3/float64(s.Runs), e.StaticPJ/1e3/float64(s.Runs))
		if h.HasL2() {
			fmt.Printf("  l2(hit/miss)=%d/%d l2missrate=%.2f%%", s.L2Hits, s.L2Misses, 100*s.L2MissRate())
		}
		fmt.Println()
	}

	orig := sim.RunHier(b.Prog, h, base)
	report("original", orig)

	opt, rep, err := core.OptimizeHier(context.Background(), b.Prog, h, core.Options{Par: par})
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(1)
	}
	optStats := sim.RunHier(opt, h, base)
	report(fmt.Sprintf("optimized (+%d pft)", rep.Inserted), optStats)

	if *hwName != "" {
		var hw hwpref.Prefetcher
		for _, p := range hwpref.All() {
			if p.Name() == *hwName {
				hw = p
			}
		}
		if hw == nil {
			names := make([]string, 0, 6)
			for _, p := range hwpref.All() {
				names = append(names, p.Name())
			}
			fmt.Fprintf(os.Stderr, "unknown prefetcher %q; known: %v\n", *hwName, names)
			os.Exit(2)
		}
		o := base
		o.HW = hw
		report("hw: "+hw.Name(), sim.RunHier(b.Prog, h, o))
	}

	if *locked {
		sel, err := locking.Select(context.Background(), b.Prog, h.L1, par)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locking:", err)
			os.Exit(1)
		}
		o := base
		o.Locked = sel.Blocks
		report(fmt.Sprintf("locked (%d blocks)", len(sel.Blocks)), sim.RunHier(b.Prog, h, o))
		fmt.Printf("\nlocked-cache WCET bound: %d cycles (exact); unlocked analysis bound: see ucp-wcet\n", sel.TauW)
	}
}
