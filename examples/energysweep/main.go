// Energysweep reproduces the Figure-3 experience for one program: optimize
// it for every cache capacity of the paper's ladder and watch how the
// energy, ACET and WCET improvements move with the cache size — large when
// the program overflows the cache, fading once everything fits.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ucp/internal/cache"
	"ucp/internal/cliutil"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/sim"
)

func main() {
	name := "fdct"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	b, err := cliutil.Benchmark(name)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("energy sweep for %s (%d instructions ≈ %d bytes of text) at 45nm, 2-way, 16B blocks\n\n",
		b.Name, b.Prog.NInstr(), b.Prog.NInstr()*4)
	fmt.Printf("%9s %6s %9s %9s %9s %10s\n", "capacity", "pft", "WCETΔ", "ACETΔ", "energyΔ", "missrate")

	for _, capacity := range []int{256, 512, 1024, 2048, 4096, 8192} {
		cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: capacity}
		mdl := energy.NewModelHier(cache.Hier1(cfg), energy.Tech45)
		par := mdl.WCETParams()

		opt, rep, err := core.OptimizeHier(context.Background(), b.Prog, cache.Hier1(cfg), core.Options{Par: par})
		if err != nil {
			log.Fatal(err)
		}
		so := sim.Options{Par: par, Seed: 7, Runs: 3}
		orig := sim.RunHier(b.Prog, cache.Hier1(cfg), so)
		after := sim.RunHier(opt, cache.Hier1(cfg), so)
		eOrig := mdl.Energy(orig.Account()).TotalPJ()
		eOpt := mdl.Energy(after.Account()).TotalPJ()

		fmt.Printf("%8dB %6d %8.2f%% %8.2f%% %8.2f%%   %5.2f%%→%5.2f%%\n",
			capacity, rep.Inserted,
			100*(1-float64(rep.TauAfter)/float64(rep.TauBefore)),
			100*(1-after.ACETCycles()/orig.ACETCycles()),
			100*(1-eOpt/eOrig),
			100*orig.MissRate(), 100*after.MissRate())
	}
}
