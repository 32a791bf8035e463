// Command ucp-opt runs the unlocked-cache prefetching optimization on one
// benchmark program and reports what it did: insertions, the rejection
// breakdown of the joint improvement criterion, and the before/after WCET.
//
// Usage:
//
//	ucp-opt -program fdct -config k5 -tech 45nm [-policy lru|fifo|plru] [-budget 700] [-dump] [-explain]
//	ucp-opt -program fdct -config k5 -tech 45nm -trace [-trace-dir /tmp/traces]
//	ucp-opt -program fdct -config k1 -l2-assoc 4 -l2-block-bytes 32 -l2-capacity-bytes 8192 -explain
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ucp/internal/cliutil"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/obs"
)

func main() {
	var (
		program  = flag.String("program", "fdct", "benchmark name (see ucp-bench -table 1) or path to a program file (isa asm format)")
		config   = flag.String("config", "k5", "cache configuration label k1..k36 (see ucp-bench -table 2)")
		policy   = flag.String("policy", "lru", "cache replacement policy: lru, fifo, or plru")
		tech     = flag.String("tech", "45nm", "process technology: 45nm or 32nm")
		budget   = flag.Int("budget", 0, "validation budget (0 = default)")
		dump     = flag.Bool("dump", false, "dump the optimized program's prefetch instructions")
		explain  = flag.Bool("explain", false, "print the per-candidate decision report (why each prefetch was inserted or rejected)")
		trace    = flag.Bool("trace", false, "print the optimization span tree (where the time went)")
		traceDir = flag.String("trace-dir", "", "persist the optimization span tree to this durable trace-sink directory (implies recording)")
	)
	l2Flag := cliutil.L2Flags(nil)
	flag.Parse()

	prog, label, err := cliutil.LoadProgram(*program)
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

	// SIGINT/SIGTERM abort the optimization cooperatively: the current pass
	// unwinds, nothing is emitted (the optimization is all-or-nothing), and
	// the exit code is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -trace/-trace-dir record the optimization under a span recorder: the
	// same "core.optimize" spans that feed ucp-serve's ?trace=1 feed the
	// terminal here, and the durable sink when -trace-dir is set.
	var rec *obs.Recorder
	if *trace || *traceDir != "" {
		rec = obs.NewRecorder("opt")
		ctx = rec.Install(ctx)
	}

	mdl := energy.NewModelHier(h, tn)
	opt, rep, err := core.OptimizeHier(ctx, prog, h, core.Options{
		Par: mdl.WCETParams(), ValidationBudget: *budget, Explain: *explain,
	})
	if err != nil {
		if interrupt.Is(err) {
			fmt.Fprintln(os.Stderr, "ucp-opt: interrupted — optimization aborted, no output produced")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(1)
	}

	fmt.Printf("program   %s: %d instructions, %d blocks, %d loops\n",
		label, prog.NInstr(), len(prog.Blocks), len(prog.Loops))
	fmt.Printf("cache     %s %v  (%d sets × %d ways, %dB blocks)\n",
		*config, h.L1, h.L1.NumSets(), h.L1.Assoc, h.L1.BlockBytes)
	if h.HasL2() {
		fmt.Printf("L2        %v  (%d sets × %d ways, %dB blocks)\n",
			h.L2, h.L2.NumSets(), h.L2.Assoc, h.L2.BlockBytes)
	}
	fmt.Printf("memory    %s\n", mdl)
	fmt.Println()
	if h.HasL2() {
		var l2pft int
		for _, blk := range opt.Blocks {
			for _, in := range blk.Instrs {
				if in.Kind == isa.KindPrefetch && in.Level == 2 {
					l2pft++
				}
			}
		}
		fmt.Printf("prefetches inserted   %d (%d into L1, %d into L2; after pruning %d parasites)\n",
			rep.Inserted, rep.Inserted-l2pft, l2pft, rep.Pruned)
	} else {
		fmt.Printf("prefetches inserted   %d (after pruning %d parasites)\n", rep.Inserted, rep.Pruned)
	}
	fmt.Printf("candidates examined   %d over %d passes, %d re-analyses\n", rep.Candidates, rep.Passes, rep.Validations)
	fmt.Printf("rejections            terminator=%d no-use=%d already-hit=%d ineffective=%d "+
		"target-is-prefetch=%d duplicate=%d validation=%d\n",
		rep.RejectedTerminator, rep.RejectedNoUse, rep.RejectedAlreadyHit, rep.RejectedIneffective,
		rep.RejectedTargetIsPft, rep.RejectedDuplicate, rep.RejectedValidation)
	fmt.Println()
	fmt.Printf("τ_w (memory WCET)     %d -> %d cycles  (%.2f%% reduction)\n",
		rep.TauBefore, rep.TauAfter, 100*(1-float64(rep.TauAfter)/float64(rep.TauBefore)))
	fmt.Printf("WCET-scenario misses  %d -> %d\n", rep.MissesBefore, rep.MissesAfter)
	if h.HasL2() {
		fmt.Printf("WCET L2 misses        %d -> %d\n", rep.L2MissesBefore, rep.L2MissesAfter)
	}
	fmt.Printf("WCET-scenario fetches %d -> %d (%+.2f%%)\n",
		rep.FetchesBefore, rep.FetchesAfter,
		100*(float64(rep.FetchesAfter)/float64(rep.FetchesBefore)-1))

	if rec != nil {
		rec.Release()
		if *trace {
			fmt.Println("\ntrace (span, wall time, attributes):")
			cliutil.PrintSpanTree(os.Stdout, rec.Tree(), 1)
		}
		if err := cliutil.SaveTrace(*traceDir, "opt-"+label, rec.Tree()); err != nil {
			fmt.Fprintln(os.Stderr, "trace sink:", err)
		}
	}

	if *explain {
		fmt.Println("\ndecision report (candidate → verdict):")
		for _, d := range rep.Decisions {
			verdict := "rejected"
			if d.Inserted {
				verdict = "INSERTED"
			}
			lvl := ""
			if d.Level == 2 {
				lvl = " L2"
			}
			fmt.Printf("  bb%d[%d]%s target %#x: %-8s %-18s", d.Block, d.Index, lvl, d.Target, verdict, d.Reason)
			switch d.Reason {
			case "no-next-use":
				// No insertion point was ever established; the costs are
				// meaningless for this candidate.
			case "terminator":
				fmt.Printf(" use=bb%d[%d] mcost=%d", d.Use.Block, d.Use.Index, d.MCost)
			default:
				fmt.Printf(" at=bb%d[%d] use=bb%d[%d] mcost=%d pcost=%d",
					d.At.Block, d.At.Index, d.Use.Block, d.Use.Index, d.MCost, d.PCost)
				if d.RCost > 0 {
					fmt.Printf(" rcost=%d", d.RCost)
				}
				fmt.Printf(" gap=%d Λ=%d effective=%t profitable=%t",
					d.Gap, d.Lambda, d.Effective, d.Profitable)
				if d.L1Class != "" || d.L2Class != "" {
					fmt.Printf(" class(L1/L2)=%s/%s", d.L1Class, d.L2Class)
				}
			}
			fmt.Println()
		}
	}

	if *dump {
		fmt.Println("\ninserted prefetch instructions:")
		lay := isa.NewLayout(opt)
		for _, blk := range opt.Blocks {
			for i, in := range blk.Instrs {
				if in.Kind != isa.KindPrefetch {
					continue
				}
				ref := isa.InstrRef{Block: blk.ID, Index: i}
				bb, level := h.L1.BlockBytes, "L1"
				if in.Level == 2 {
					bb, level = h.L2.BlockBytes, "L2"
				}
				fmt.Printf("  %#06x: prefetch %s block %#x (target %v at %#06x)\n",
					lay.Addr(ref), level, lay.PrefetchTargetBlock(ref, bb),
					in.Target, lay.Addr(in.Target))
			}
		}
	}
}
