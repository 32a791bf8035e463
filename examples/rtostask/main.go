// Rtostask models the paper's motivating scenario (Section 1): a baseband
// task set on an RTOS, where each task owns an effective slice of the
// instruction cache and must meet a WCET budget. The optimization buys
// headroom on every task without ever invalidating a budget — the
// reconciliation of real-time guarantees and energy efficiency.
package main

import (
	"context"
	"fmt"
	"log"

	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
)

// task pairs a program with its effective cache slice and deadline budget
// (in memory cycles — the quantity the analysis bounds).
type task struct {
	name     string
	slice    cache.Config
	budgetCy int64
}

func main() {
	// A protocol-stack flavored task set: tight slices for the small
	// helpers, a bigger slice for the state machine.
	tasks := []task{
		{"crc", cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}, 0},
		{"adpcm", cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}, 0},
		{"compress", cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}, 0},
		{"statemate", cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 2048}, 0},
	}

	fmt.Println("RTOS task set: WCET budgets before and after unlocked-cache prefetching (32nm)")
	fmt.Printf("\n%-12s %-12s %12s %12s %9s %9s\n", "task", "cache slice", "bound before", "bound after", "headroom", "pft")

	var totalBefore, totalAfter int64
	for _, tk := range tasks {
		b, ok := malardalen.ByName(tk.name)
		if !ok {
			log.Fatalf("unknown task %s", tk.name)
		}
		mdl := energy.NewModelHier(cache.Hier1(tk.slice), energy.Tech32)
		par := mdl.WCETParams()

		before, err := wcet.AnalyzeHier(context.Background(), b.Prog, cache.Hier1(tk.slice), par)
		if err != nil {
			log.Fatal(err)
		}
		_, rep, err := core.OptimizeHier(context.Background(), b.Prog, cache.Hier1(tk.slice), core.Options{Par: par})
		if err != nil {
			log.Fatal(err)
		}
		// A schedulability budget set 5% above the original bound: the
		// optimized task must still fit (Theorem 1 makes this trivial) and
		// the freed cycles are schedulable slack.
		budget := before.TauW + before.TauW/20
		if rep.TauAfter > budget {
			log.Fatalf("%s: optimized bound exceeds its budget — impossible by Theorem 1", tk.name)
		}
		totalBefore += before.TauW
		totalAfter += rep.TauAfter
		fmt.Printf("%-12s %-12v %12d %12d %8.2f%% %9d\n",
			tk.name, tk.slice, before.TauW, rep.TauAfter,
			100*(1-float64(rep.TauAfter)/float64(before.TauW)), rep.Inserted)
	}
	fmt.Printf("\ntask-set memory WCET: %d -> %d cycles (%.2f%% schedulable slack gained)\n",
		totalBefore, totalAfter, 100*(1-float64(totalAfter)/float64(totalBefore)))
	fmt.Println("every per-task budget provably still holds: the optimization never increases a bound.")
}
