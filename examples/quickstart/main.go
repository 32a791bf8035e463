// Quickstart: build a small real-time task with the structured program
// builder, run the cache-aware WCET analysis, optimize it with
// unlocked-cache prefetching, and verify the paper's guarantee — the memory
// contribution to the WCET never grows (Theorem 1) while misses drop.
// Every pipeline entry point takes a cache hierarchy; the task's one-level
// cache is the degenerate hierarchy cache.Hier1(cfg).
package main

import (
	"context"
	"fmt"
	"log"

	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/wcet"
)

func main() {
	// A little DSP-ish task: a sample loop whose body slightly overflows
	// the instruction cache — the classic situation where on-demand
	// fetching keeps paying conflict misses every iteration.
	task := isa.Build("quickstart",
		isa.Code(12), // setup
		isa.Loop(64, 60,
			isa.Code(40), // filter stage
			isa.If(0.8, isa.S(isa.Code(30)), isa.S(isa.Code(12))), // common vs. rare path
			isa.Code(35), // accumulate
		),
		isa.Code(8), // epilogue
	)

	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}

	before, err := wcet.AnalyzeHier(context.Background(), task, cache.Hier1(cfg), par)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original:  τ_w = %d cycles, %d WCET-scenario misses\n", before.TauW, before.Misses)

	optimized, report, err := core.OptimizeHier(context.Background(), task, cache.Hier1(cfg), core.Options{Par: par})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized: τ_w = %d cycles, %d WCET-scenario misses (%d prefetches inserted)\n",
		report.TauAfter, report.MissesAfter, report.Inserted)

	if report.TauAfter > before.TauW {
		log.Fatal("Theorem 1 violated — this must never happen")
	}
	fmt.Printf("guarantee: τ_w reduced by %.1f%% and provably never increased\n",
		100*(1-float64(report.TauAfter)/float64(before.TauW)))

	// The average case follows along (the paper's Condition 3).
	so := sim.Options{Par: par, Seed: 1, Runs: 5}
	a := sim.RunHier(task, cache.Hier1(cfg), so)
	b := sim.RunHier(optimized, cache.Hier1(cfg), so)
	fmt.Printf("simulated: ACET %.0f -> %.0f cycles (%.1f%%), miss rate %.2f%% -> %.2f%%\n",
		a.ACETCycles(), b.ACETCycles(), 100*(1-b.ACETCycles()/a.ACETCycles()),
		100*a.MissRate(), 100*b.MissRate())
}
