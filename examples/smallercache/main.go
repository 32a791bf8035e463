// Smallercache demonstrates the paper's Figure-5 argument: because
// prefetching is independent from locality, a binary optimized for a cache
// 2–4× smaller can approach (or beat) the original binary on the full-size
// cache — and the smaller cache leaks less and costs less per access, so
// the energy drops further. The example scans a few candidates and reports
// the cells where the trade works (the paper's "shaded areas").
package main

import (
	"context"
	"fmt"
	"log"

	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/malardalen"
	"ucp/internal/sim"
)

func main() {
	fmt.Println("binaries optimized for a half-size cache vs. the original on the full cache (45nm)")
	fmt.Printf("\n%-12s %10s | %12s %12s | %12s %12s\n",
		"program", "full", "ACET ratio", "energy ratio", "sustained?", "prefetches")

	programs := []string{"crc", "fdct", "whet", "compress", "adpcm", "lms", "qsort-exam", "select", "edn"}
	for _, name := range programs {
		b, ok := malardalen.ByName(name)
		if !ok {
			log.Fatalf("unknown program %s", name)
		}
		// Pick the smallest full-size cache that comfortably holds the
		// program, then drop to half of it.
		text := b.Prog.NInstr() * 4
		full := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
		for full.CapacityBytes < text && full.CapacityBytes < 8192 {
			full.CapacityBytes *= 2
		}
		half := full
		half.CapacityBytes /= 2

		mFull := energy.NewModelHier(cache.Hier1(full), energy.Tech45)
		mHalf := energy.NewModelHier(cache.Hier1(half), energy.Tech45)

		orig := sim.RunHier(b.Prog, cache.Hier1(full), sim.Options{Par: mFull.WCETParams(), Seed: 9, Runs: 3})
		eOrig := mFull.Energy(orig.Account()).TotalPJ()

		opt, rep, err := core.OptimizeHier(context.Background(), b.Prog, cache.Hier1(half), core.Options{Par: mHalf.WCETParams()})
		if err != nil {
			log.Fatal(err)
		}
		small := sim.RunHier(opt, cache.Hier1(half), sim.Options{Par: mHalf.WCETParams(), Seed: 9, Runs: 3})
		eSmall := mHalf.Energy(small.Account()).TotalPJ()

		acetRatio := small.ACETCycles() / orig.ACETCycles()
		energyRatio := eSmall / eOrig
		sustained := "no"
		if acetRatio <= 1.02 {
			sustained = "YES"
		}
		fmt.Printf("%-12s %9dB | %11.3f %12.3f | %12s %12d\n",
			name, full.CapacityBytes, acetRatio, energyRatio, sustained, rep.Inserted)
	}
	fmt.Println("\nratios < 1 mean the half-size deployment is cheaper/faster than the full-size original;")
	fmt.Println("\"sustained\" marks the cells inside the paper's shaded areas, where halving the cache is free.")
}
