package sim

import (
	"context"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
)

// soundnessConfigs samples the Table 2 axis: one configuration per
// associativity, small enough that the benchmarks actually contend for sets.
var soundnessConfigs = []cache.Config{
	{Assoc: 1, BlockBytes: 16, CapacityBytes: 256},
	{Assoc: 2, BlockBytes: 16, CapacityBytes: 512},
	{Assoc: 4, BlockBytes: 32, CapacityBytes: 1024},
}

// TestPolicySoundnessCrossLayer checks the analysis against the simulator
// end to end: for every Mälardalen benchmark, sampled configuration, and
// replacement policy, a reference the abstract interpretation classifies
// always-hit in EVERY VIVU context must never miss in any concrete
// execution of the same program on the same cache. The simulator's OnFetch
// hook provides the per-reference miss accounting; both layers build their
// cache model from the same Config, so a policy mismatch or an unsound
// transfer function shows up as an AH reference that missed.
func TestPolicySoundnessCrossLayer(t *testing.T) {
	par := wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}
	benches := malardalen.All()
	if testing.Short() {
		benches = benches[:8]
	}
	for _, pol := range cachetest.Policies(t) {
		for _, base := range soundnessConfigs {
			cfg := base
			cfg.Policy = pol
			for _, b := range benches {
				res, err := wcet.AnalyzeHier(context.Background(), b.Prog, cache.Hier1(cfg), par)
				if err != nil {
					t.Fatalf("%s/%v: %v", b.Name, cfg, err)
				}
				// A reference is provably always-hit only when every context
				// that executes it agrees; a single weaker context means a
				// concrete visit may take that path and miss legitimately.
				type ref struct{ block, index int }
				allAH := map[ref]bool{}
				for _, xb := range res.X.Blocks {
					for i, cl := range res.AI.Class[xb.ID] {
						key := ref{xb.Orig, i}
						seen, ok := allAH[key]
						if !ok {
							seen = true
						}
						allAH[key] = seen && cl == absint.AlwaysHit
					}
				}

				missed := map[ref]bool{}
				RunHier(b.Prog, cache.Hier1(cfg), Options{
					Par:  par,
					Seed: 13,
					Runs: 3,
					OnFetch: func(r isa.InstrRef, hit bool) {
						if !hit {
							missed[ref{r.Block, r.Index}] = true
						}
					},
				})
				for key, ah := range allAH {
					if ah && missed[key] {
						t.Errorf("%s/%v: reference (bb%d,%d) classified always-hit in every context but missed concretely",
							b.Name, cfg, key.block, key.index)
					}
				}
			}
		}
	}
}

// TestPolicyOnFetchAccounting pins the OnFetch contract on a program with
// no prefetches: one callback per demand fetch, and the callback's
// hit/miss tally must reconcile with the aggregate Stats (stalls cannot
// occur without prefetchers, so callback misses equal Stats.Misses).
func TestPolicyOnFetchAccounting(t *testing.T) {
	par := wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}
	p := isa.Build("acct", isa.Loop(6, 4, isa.Code(10)), isa.Code(5))
	for _, pol := range cachetest.Policies(t) {
		cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 128, Policy: pol}
		var calls, misses int64
		st := RunHier(p, cache.Hier1(cfg), Options{Par: par, Seed: 3, Runs: 2, OnFetch: func(_ isa.InstrRef, hit bool) {
			calls++
			if !hit {
				misses++
			}
		}})
		if calls != st.Fetches {
			t.Errorf("%s: %d OnFetch calls for %d fetches", pol, calls, st.Fetches)
		}
		if misses != st.Misses {
			t.Errorf("%s: OnFetch saw %d misses, Stats counted %d", pol, misses, st.Misses)
		}
		if st.Stalls != 0 {
			t.Errorf("%s: %d stalls without prefetchers", pol, st.Stalls)
		}
	}
}
