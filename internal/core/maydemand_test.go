package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// TestMayDemandDifferential runs the optimizer's chains with the AlwaysMiss
// demand OptimizeHier derives (amDemand: the may component dropped at every
// LRU/PLRU level no verdict reader needs) and with every level resolving
// AlwaysMiss, over random programs and the Mälardalen suite, under every
// policy, on the golden geometry's L1 alone and behind its L2. The seed
// analyses must agree on τ_w, every n_w, the miss, L2-miss and fetch totals
// and every verdict except AlwaysMiss, which may read NotClassified
// (diffUpToAM). For the random programs and the first ten of the suite the
// two optimizations must also make the same sequence of re-analyses with
// the same totals and end in the same program and report; the pipeline
// golden, recorded before any chain dropped the may component, pins the
// optimizations of the whole suite.
func TestMayDemandDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var progs []*isa.Program
	for i := 0; i < 16; i++ {
		progs = append(progs, randomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	optimized := len(progs) + 10
	for _, b := range malardalen.All() {
		progs = append(progs, b.Prog)
	}
	ctx := context.Background()
	all := wcet.AMDemand{L1: true, L2: true}
	var trail *[]string
	testRefreshCheck = func(r *wcet.Result) {
		*trail = append(*trail, fmt.Sprintf("τ=%d misses=%d l2misses=%d fetches=%d", r.TauW, r.Misses, r.L2Misses, r.Fetches))
	}
	defer func() { testRefreshCheck = nil }()
	dropped, runs := 0, 0
	for _, pol := range cachetest.Policies(t) {
		for _, leg := range []goldenLeg{legL1, legL1L2} {
			h, par := goldenHierarchy(pol, leg.l2)
			opt := Options{Par: par, ValidationBudget: 25}
			lean := amDemand(h, opt)
			for pi, p := range progs {
				where := fmt.Sprintf("%s %s %s", p.Name, pol, leg.name)
				x, err := vivu.Expand(p.Clone())
				if err != nil {
					t.Fatal(err)
				}
				seedLean, err := wcet.AnalyzeXHierSeed(ctx, x, h, par, lean)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				seedAll, err := wcet.AnalyzeXHierSeed(ctx, x, h, par, all)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := diffUpToAM(seedLean, seedAll); err != nil {
					t.Fatalf("%s: seed analysis: %v", where, err)
				}
				dropped += countAM(seedAll) - countAM(seedLean)
				if pi >= optimized {
					continue
				}

				var trailLean, trailAll []string
				trail = &trailLean
				qLean, repLean, err := optimizeHier(ctx, p, h, opt, lean)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				trail = &trailAll
				qAll, repAll, err := optimizeHier(ctx, p, h, opt, all)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !reflect.DeepEqual(trailLean, trailAll) {
					t.Fatalf("%s: the re-analyses diverge:\n without AlwaysMiss %v\n with it          %v", where, trailLean, trailAll)
				}
				if isa.Fingerprint(qLean) != isa.Fingerprint(qAll) || !reflect.DeepEqual(repLean, repAll) {
					t.Fatalf("%s: optimized programs or reports diverge:\n without AlwaysMiss %+v\n with it          %+v", where, repLean, repAll)
				}
				runs++
			}
		}
	}
	if dropped == 0 {
		for _, pol := range cachetest.Policies(t) {
			if pol != cache.FIFO {
				t.Fatal("no seed analysis dropped an AlwaysMiss verdict; the differential is vacuous")
			}
		}
	}
	t.Logf("%d optimizations compared, %d AlwaysMiss verdicts read as NotClassified in the seeds", runs, dropped)
}

// countAM counts r's AlwaysMiss verdicts at both levels.
func countAM(r *wcet.Result) int {
	n := 0
	for _, ai := range []*absint.Result{r.AI, r.AI2} {
		if ai == nil {
			continue
		}
		for _, row := range ai.Class {
			for _, c := range row {
				if c == absint.AlwaysMiss {
					n++
				}
			}
		}
	}
	return n
}
