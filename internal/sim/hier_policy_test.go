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

// hierPar prices the three fetch outcomes of a two-level hierarchy.
var hierPar = wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 10, L2HitCycles: 5}

// TestHierarchySoundnessCrossLayer extends the cross-layer soundness check
// to both levels of a hierarchy, per replacement policy per level: for
// every Mälardalen benchmark, a reference the abstract interpretation
// classifies always-hit at a level in EVERY VIVU context must never miss
// that level in any concrete execution. The L1 check exercises the L1
// domain under a live L2 underneath it; the L2 check exercises the
// CAC-filtered L2 domain against the simulator's demand-only L2 probes
// (OnFetch2 fires exactly when a demand fetch misses the L1).
func TestHierarchySoundnessCrossLayer(t *testing.T) {
	// One hierarchy per (policy, level) pairing: the policy under test
	// drives one level while the other stays LRU, so an unsound transfer
	// function is attributable to a single level.
	type variant struct {
		name string
		h    cache.Hierarchy
	}
	variants := func(pol cache.Policy) []variant {
		l1 := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256, Policy: pol}
		l2 := cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 1024, Policy: cache.LRU}
		atL1 := cache.Hierarchy{L1: l1, L2: l2}
		l1.Policy, l2.Policy = cache.LRU, pol
		atL2 := cache.Hierarchy{L1: l1, L2: l2}
		return []variant{{"l1-" + pol.String(), atL1}, {"l2-" + pol.String(), atL2}}
	}

	benches := malardalen.All()
	if testing.Short() {
		benches = benches[:8]
	}
	for _, pol := range cachetest.Policies(t) {
		for _, v := range variants(pol) {
			if err := v.h.Valid(); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			for _, b := range benches {
				res, err := wcet.AnalyzeHier(context.Background(), b.Prog, v.h, hierPar)
				if err != nil {
					t.Fatalf("%s/%s: %v", b.Name, v.name, err)
				}
				// A reference is provably always-hit at a level only when
				// every context that executes it agrees.
				type ref struct{ block, index int }
				joinAH := func(class [][]absint.Classification) map[ref]bool {
					all := map[ref]bool{}
					for _, xb := range res.X.Blocks {
						for i, cl := range class[xb.ID] {
							key := ref{xb.Orig, i}
							seen, ok := all[key]
							if !ok {
								seen = true
							}
							all[key] = seen && cl == absint.AlwaysHit
						}
					}
					return all
				}
				ahL1 := joinAH(res.AI.Class)
				ahL2 := joinAH(res.AI2.Class)

				missedL1 := map[ref]bool{}
				missedL2 := map[ref]bool{}
				RunHier(b.Prog, v.h, Options{
					Par:  hierPar,
					Seed: 13,
					Runs: 3,
					OnFetch: func(r isa.InstrRef, hit bool) {
						if !hit {
							missedL1[ref{r.Block, r.Index}] = true
						}
					},
					OnFetch2: func(r isa.InstrRef, hit bool) {
						if !hit {
							missedL2[ref{r.Block, r.Index}] = true
						}
					},
				})
				for key, ah := range ahL1 {
					if ah && missedL1[key] {
						t.Errorf("%s/%s: reference (bb%d,%d) always-hit at L1 in every context but missed the L1 concretely",
							b.Name, v.name, key.block, key.index)
					}
				}
				for key, ah := range ahL2 {
					if ah && missedL2[key] {
						t.Errorf("%s/%s: reference (bb%d,%d) always-hit at L2 in every context but missed the L2 concretely",
							b.Name, v.name, key.block, key.index)
					}
				}
			}
		}
	}
}

// TestHierarchyOnFetch2Accounting pins the OnFetch2 contract: one callback
// per L2 probe (demand fetches that miss the L1), and its hit/miss tally
// must reconcile with the aggregate L2 Stats on a prefetch-free program.
func TestHierarchyOnFetch2Accounting(t *testing.T) {
	p := isa.Build("acct2", isa.Loop(6, 4, isa.Code(30)), isa.Code(9))
	for _, pol := range cachetest.Policies(t) {
		h := cache.Hierarchy{
			L1: cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 64, Policy: pol},
			L2: cache.Config{Assoc: 2, BlockBytes: 32, CapacityBytes: 256, Policy: pol},
		}
		var calls, hits, misses int64
		st := RunHier(p, h, Options{Par: hierPar, Seed: 3, Runs: 2, OnFetch2: func(_ isa.InstrRef, hit bool) {
			calls++
			if hit {
				hits++
			} else {
				misses++
			}
		}})
		if calls != st.L2Hits+st.L2Misses {
			t.Errorf("%s: %d OnFetch2 calls for %d L2 accesses", pol, calls, st.L2Hits+st.L2Misses)
		}
		if hits != st.L2Hits || misses != st.L2Misses {
			t.Errorf("%s: OnFetch2 saw %d/%d hit/miss, Stats counted %d/%d",
				pol, hits, misses, st.L2Hits, st.L2Misses)
		}
		if calls != st.Misses {
			t.Errorf("%s: L2 probes (%d) do not equal L1 misses (%d) on a prefetch-free program", pol, calls, st.Misses)
		}
	}
}
