package wcet_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/isa/isatest"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
	"ucp/internal/wcet/wcettest"
)

// TestSetScopedDifferential holds the set-scoped re-analysis — only the
// cache sets onto which an edit changed some block's events are re-solved,
// every other set and its verdicts come from the seed — to from-scratch
// analyses with the same AlwaysMiss demand (wcettest.SameAsFull): every
// level's exit states, verdicts and effectiveness bits, the WCET vectors
// and the layout's addresses. It runs the
// accept/reject chains of TestRetireDifferential, then 60 random programs
// and the Mälardalen suite under every policy (or the one UCP_POLICY
// names), on the L1 alone and behind an 8 KiB L2, each edited twice, the
// may demand alternating. Most of the chains' L2 re-analyses must re-solve
// a strict subset of the sets, so the test cannot pass by re-solving every
// set.
func TestSetScopedDifferential(t *testing.T) {
	t.Parallel()
	check := func(t *testing.T, where string, r *wcet.Result) {
		t.Helper()
		if err := wcettest.SameAsFull(r); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}

	nsets := chainHierarchies(cache.LRU)[1].L2.NumSets()
	var l2, partial atomic.Int64
	rec := obs.NewRecorder("set-scoped chains")
	defer rec.Release()
	rec.OnEnd = func(name string, _ time.Duration, attrs []obs.Attr) {
		if name != "absint.solve_l2" {
			return
		}
		inc, masked := false, -1
		for _, a := range attrs {
			switch a.Key {
			case "incremental":
				inc, _ = a.Value.(bool)
			case "mask_sets":
				masked, _ = a.Value.(int)
			}
		}
		if inc {
			l2.Add(1)
			if masked >= 0 && masked < nsets {
				partial.Add(1)
			}
		}
	}
	acceptRejectChains(rec.Install(context.Background()), t, true, cache.Policies(), check)
	if 2*partial.Load() <= l2.Load() {
		t.Fatalf("%d of %d L2 re-analyses of the chains re-solved a strict subset of the %d sets; want most",
			partial.Load(), l2.Load(), nsets)
	}
	t.Logf("chains: %d of %d L2 re-analyses set-scoped", partial.Load(), l2.Load())

	rng := rand.New(rand.NewSource(28))
	var progs []*isa.Program
	for i := 0; i < 60; i++ {
		progs = append(progs, isatest.RandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, bm := range malardalen.All() {
		progs = append(progs, bm.Prog)
	}
	ctx := context.Background()
	for pi, prog := range progs {
		for _, pol := range cachetest.Policies(t) {
			for _, h := range chainHierarchies(pol) {
				par := diffParams(h)
				am := pi%2 == 0
				where := fmt.Sprintf("%s/%s/am=%v", prog.Name, h, am)
				p := prog.Clone()
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := wcet.AnalyzeXHierFrom(ctx, x, h, par, nil, am)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 2; step++ {
					if !mutate(rng, p) {
						continue
					}
					if res, err = wcet.AnalyzeXHierFrom(ctx, x, h, par, res, am); err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("%s edit %d", where, step), res)
				}
			}
		}
	}
}
