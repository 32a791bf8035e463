// Command ucp-wcet runs the cache-aware WCET analysis on one benchmark
// program and prints the classification statistics and the memory
// contribution to the WCET, optionally cross-checking the structural solver
// against the IPET integer linear program; a -ilp mismatch exits with status 1.
//
// Usage:
//
//	ucp-wcet -program crc -config k14 -tech 45nm [-policy lru|fifo|plru] [-ilp] [-contexts] [-trace]
//	ucp-wcet -program crc -config k14 -tech 45nm -trace-dir /tmp/traces   # durable span tree
//	ucp-wcet -program crc -config k1 -l2-assoc 4 -l2-block-bytes 32 -l2-capacity-bytes 8192
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ucp/internal/absint"
	"ucp/internal/cliutil"
	"ucp/internal/energy"
	"ucp/internal/ipet"
	"ucp/internal/obs"
	"ucp/internal/wcet"
)

func main() {
	var (
		program  = flag.String("program", "crc", "benchmark program name")
		config   = flag.String("config", "k14", "cache configuration label k1..k36")
		policy   = flag.String("policy", "lru", "cache replacement policy: lru, fifo, or plru")
		tech     = flag.String("tech", "45nm", "process technology: 45nm or 32nm")
		ilpCheck = flag.Bool("ilp", false, "cross-check the structural solver against the IPET ILP")
		contexts = flag.Bool("contexts", false, "print the per-context classification table")
		trace    = flag.Bool("trace", false, "print the pipeline span tree (where the analysis time went)")
		traceDir = flag.String("trace-dir", "", "persist the analysis span tree to this durable trace-sink directory (implies recording)")
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
	ctx := context.Background()
	var rec *obs.Recorder
	if *trace || *traceDir != "" {
		rec = obs.NewRecorder("wcet")
		ctx = rec.Install(ctx)
	}
	res, err := wcet.AnalyzeHier(ctx, b.Prog, h, mdl.WCETParams())
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}

	var ah, am, nc int64
	for _, xb := range res.X.Blocks {
		for _, cl := range res.AI.Class[xb.ID] {
			switch cl {
			case absint.AlwaysHit:
				ah++
			case absint.AlwaysMiss:
				am++
			default:
				nc++
			}
		}
	}
	total := ah + am + nc

	fmt.Printf("program    %s (%s): %d instructions, %d expanded references in %d contexts\n",
		b.Name, b.ID, b.Prog.NInstr(), total, len(res.X.Blocks))
	fmt.Printf("cache      %s %v\n", *config, h.L1)
	if h.HasL2() {
		fmt.Printf("L2         %v\n", h.L2)
		fmt.Printf("timing     hit=%d l2hit=%d miss=%d Λ=%d cycles\n",
			res.Par.HitCycles, res.Par.HitCycles+res.Par.L2HitCycles, res.Par.MissCycles(), res.Par.Lambda)
	} else {
		fmt.Printf("timing     hit=%d miss=%d Λ=%d cycles\n", res.Par.HitCycles, res.Par.MissCycles(), res.Par.Lambda)
	}
	fmt.Println()
	fmt.Printf("classification  AH %d (%.1f%%)  AM %d (%.1f%%)  NC %d (%.1f%%)\n",
		ah, pct(ah, total), am, pct(am, total), nc, pct(nc, total))
	if res.AI2 != nil {
		var ah2, am2, nc2 int64
		for _, xb := range res.X.Blocks {
			for _, cl := range res.AI2.Class[xb.ID] {
				switch cl {
				case absint.AlwaysHit:
					ah2++
				case absint.AlwaysMiss:
					am2++
				default:
					nc2++
				}
			}
		}
		fmt.Printf("L2 class        AH %d (%.1f%%)  AM %d (%.1f%%)  NC %d (%.1f%%)\n",
			ah2, pct(ah2, total), am2, pct(am2, total), nc2, pct(nc2, total))
	}
	if h.HasL2() {
		fmt.Printf("τ_w             %d cycles over %d WCET-scenario fetches (%d L1 misses, %d L2 misses)\n",
			res.TauW, res.Fetches, res.Misses, res.L2Misses)
	} else {
		fmt.Printf("τ_w             %d cycles over %d WCET-scenario fetches (%d misses)\n",
			res.TauW, res.Fetches, res.Misses)
	}

	mismatch := false
	if *ilpCheck {
		ref, err := ipet.Solve(res.X, res.Cost, res.Extra)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		status := "MATCH"
		if ref.TauW != res.TauW {
			status = "MISMATCH"
			mismatch = true
		}
		fmt.Printf("IPET ILP        τ_w = %d  [%s]\n", ref.TauW, status)
	}

	if rec != nil {
		rec.Release()
		if *trace {
			fmt.Println("\ntrace (span, wall time, attributes):")
			cliutil.PrintSpanTree(os.Stdout, rec.Tree(), 1)
		}
		if err := cliutil.SaveTrace(*traceDir, "wcet-"+b.Name, rec.Tree()); err != nil {
			fmt.Fprintln(os.Stderr, "trace sink:", err)
		}
	}

	if *contexts {
		fmt.Println("\nper-context summary (block, context, n_w, AH/AM/NC):")
		for _, xb := range res.X.Blocks {
			var a, m, n int
			for _, cl := range res.AI.Class[xb.ID] {
				switch cl {
				case absint.AlwaysHit:
					a++
				case absint.AlwaysMiss:
					m++
				default:
					n++
				}
			}
			fmt.Printf("  bb%-4d %-8s n_w=%-6d AH=%-4d AM=%-4d NC=%-4d\n",
				xb.Orig, xb.Ctx, res.Nw[xb.ID], a, m, n)
		}
	}
	if mismatch {
		os.Exit(1)
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
