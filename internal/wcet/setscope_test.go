package wcet_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// sameLevel compares one level of a re-analysis with a from-scratch
// analysis of the same program: every exit state, every verdict and every
// effectiveness bit.
func sameLevel(inc, full *absint.Result) error {
	if id := inc.DiffStates(full); id >= 0 {
		return fmt.Errorf("exit state of block %d diverges", id)
	}
	for id := range full.Class {
		if len(inc.Class[id]) != len(full.Class[id]) {
			return fmt.Errorf("block %d: %d verdicts, from scratch %d", id, len(inc.Class[id]), len(full.Class[id]))
		}
		for i, want := range full.Class[id] {
			if got := inc.Class[id][i]; got != want {
				return fmt.Errorf("class[%d][%d] %v, from scratch %v", id, i, got, want)
			}
			if inc.Effective(id, i) != full.Effective(id, i) {
				return fmt.Errorf("effectiveness[%d][%d] diverges", id, i)
			}
		}
	}
	return nil
}

// sameAsScratch analyzes r's program from scratch, level by level with each
// level's AlwaysMiss demand, and compares every level with r's.
func sameAsScratch(r *wcet.Result) error {
	ctx := context.Background()
	lay := isa.NewLayout(r.X.Prog)
	lambda := int(r.Par.Lambda)
	l1, err := absint.AnalyzeChain(ctx, r.X, lay, r.Hier.L1, lambda, nil, r.AI.HasAlwaysMiss())
	if err != nil {
		return err
	}
	if err := sameLevel(r.AI, l1); err != nil {
		return fmt.Errorf("L1: %v", err)
	}
	if r.AI2 == nil {
		return nil
	}
	l2, err := absint.AnalyzeChain(ctx, r.X, lay, r.Hier.L2, lambda, l1, r.AI2.HasAlwaysMiss())
	if err != nil {
		return err
	}
	if err := sameLevel(r.AI2, l2); err != nil {
		return fmt.Errorf("L2: %v", err)
	}
	return nil
}

// TestSetScopedDifferential holds the set-scoped re-analysis — only the
// cache sets onto which an edit changed some block's events are re-solved,
// every other set and its verdicts come from the seed — to from-scratch
// analyses with the same AlwaysMiss demand, level by level: every exit
// state, every verdict and every effectiveness bit. It runs the
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
		if err := sameAsScratch(r); err != nil {
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
	acceptRejectChains(rec.Install(context.Background()), t, true, check)
	if 2*partial.Load() <= l2.Load() {
		t.Fatalf("%d of %d L2 re-analyses of the chains re-solved a strict subset of the %d sets; want most",
			partial.Load(), l2.Load(), nsets)
	}
	t.Logf("chains: %d of %d L2 re-analyses set-scoped", partial.Load(), l2.Load())

	rng := rand.New(rand.NewSource(28))
	var progs []*isa.Program
	for i := 0; i < 60; i++ {
		progs = append(progs, wcet.RandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, bm := range malardalen.All() {
		progs = append(progs, bm.Prog)
	}
	ctx := context.Background()
	for pi, prog := range progs {
		for _, pol := range cachetest.Policies(t) {
			for _, h := range chainHierarchies(pol) {
				par := diffParams(h)
				am := wcet.AMDemand{L1: true, L2: true}
				if pi%2 == 1 {
					am = wcet.AMDemand{L1: h.HasL2()}
				}
				where := fmt.Sprintf("%s/%s/%+v", prog.Name, h, am)
				p := prog.Clone()
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := wcet.AnalyzeXHierSeed(ctx, x, h, par, am)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 2; step++ {
					if !mutate(rng, p) {
						continue
					}
					if res, err = wcet.AnalyzeXHierFrom(ctx, x, h, par, res); err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("%s edit %d", where, step), res)
				}
			}
		}
	}
}
