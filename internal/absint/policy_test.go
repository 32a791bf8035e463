package absint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

// TestPolicyClassificationSoundness is TestClassificationSoundness run under
// every replacement policy: the concrete driver replays the program against
// a cache.State with the same policy the abstract analysis modeled, so a
// single unsound transfer (an AH that can miss, an AM that can hit) fails
// the matching policy here.
func TestPolicyClassificationSoundness(t *testing.T) {
	programs := []*isa.Program{
		isa.Build("p1", isa.Loop(6, 4, isa.Code(10)), isa.Code(5)),
		isa.Build("p2", isa.If(0.5, isa.S(isa.Code(8)), isa.S(isa.Code(12))), isa.Loop(5, 3, isa.Code(6))),
		isa.Build("p3", isa.Loop(4, 3, isa.Code(3), isa.Loop(3, 2, isa.Code(5)), isa.Code(2))),
		isa.Build("p4", isa.Loop(8, 6, isa.IfThen(0.3, isa.Code(20)), isa.Code(4))),
	}
	cfgs := []cache.Config{
		{Assoc: 1, BlockBytes: 16, CapacityBytes: 128},
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 4, BlockBytes: 32, CapacityBytes: 512},
	}
	for _, pol := range cachetest.Policies(t) {
		for _, p := range programs {
			for _, base := range cfgs {
				cfg := base
				cfg.Policy = pol
				if err := cfg.Valid(); err != nil {
					t.Fatal(err)
				}
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				lay := isa.NewLayout(p)
				res := testAnalyze(t, x, lay, cfg, 10)

				classOf := func(block, index int, iter int) Classification {
					agg := Classification(255)
					for _, xb := range x.Blocks {
						if xb.Orig != block {
							continue
						}
						if len(xb.Ctx) > 0 {
							last := xb.Ctx[len(xb.Ctx)-1]
							if iter == 0 && last != 'F' {
								continue
							}
							if iter > 0 && last != 'R' {
								continue
							}
						}
						cl := res.Class[xb.ID][index]
						if agg == 255 {
							agg = cl
						} else if agg != cl {
							return NotClassified
						}
					}
					if agg == 255 {
						return NotClassified
					}
					return agg
				}

				rng := rand.New(rand.NewSource(42))
				for run := 0; run < 10; run++ {
					for _, ev := range concreteRun(p, cfg, rng) {
						cl := classOf(ev.block, ev.index, ev.iteration)
						if cl == AlwaysHit && !ev.hit {
							t.Fatalf("%s/%v: AH ref (%d,%d) missed concretely (iter %d)",
								p.Name, cfg, ev.block, ev.index, ev.iteration)
						}
						if cl == AlwaysMiss && ev.hit {
							t.Fatalf("%s/%v: AM ref (%d,%d) hit concretely (iter %d)",
								p.Name, cfg, ev.block, ev.index, ev.iteration)
						}
					}
				}
			}
		}
	}
}

// Property: must ⊆ may under every policy, through accesses and both kinds
// of prefetch fills.
func TestPolicyMustSubsetOfMay(t *testing.T) {
	for _, pol := range cachetest.Policies(t) {
		cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64, Policy: pol}
		f := func(ops []uint8) bool {
			st := NewState(cfg)
			for _, op := range ops {
				blk := uint64(op % 16)
				switch op >> 6 {
				case 0, 1:
					st.Access(blk)
				case 2:
					st.PrefetchFill(blk, true)
				default:
					st.PrefetchFill(blk, false)
				}
				for b := uint64(0); b < 16; b++ {
					if st.MustContains(b) && !st.MayContains(b) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

// transferFor must keep LRU on the exact classical path, reduce 2-way PLRU
// to it, and pick the virtual associativity log2(a)+1 for wider PLRU.
func TestPolicyTransferSelection(t *testing.T) {
	lru := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 256}
	if _, ok := transferFor(lru, false).(lruTransfer); !ok {
		t.Fatal("LRU config did not select the exact LRU transfer")
	}
	p2 := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64, Policy: cache.PLRU}
	if _, ok := transferFor(p2, false).(lruTransfer); !ok {
		t.Fatal("2-way PLRU must reduce to the exact LRU transfer")
	}
	for _, c := range []struct {
		assoc int
		eff   uint8
	}{{4, 3}, {8, 4}} {
		cfg := cache.Config{Assoc: c.assoc, BlockBytes: 16, CapacityBytes: 16 * c.assoc, Policy: cache.PLRU}
		tr, ok := transferFor(cfg, false).(plruTransfer)
		if !ok || tr.eff != c.eff {
			t.Fatalf("assoc %d: got %#v, want plruTransfer{eff: %d}", c.assoc, transferFor(cfg, false), c.eff)
		}
	}
	fifo := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 256, Policy: cache.FIFO}
	if _, ok := transferFor(fifo, false).(fifoTransfer); !ok {
		t.Fatal("FIFO config did not select the FIFO transfer")
	}
}

// A FIFO hit does not refresh the accessed block's position, so after an
// unknown hit/miss access the block's persistence bound must be kept, not
// reset — resetting would claim more residency than a hit delivers. The same
// holds for a saturated bound: only a definite miss (a reload) brings it
// back to zero.
func TestPolicyFIFOPersistenceNoRefresh(t *testing.T) {
	cfg := cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 64, Policy: cache.FIFO} // 1 set
	st := NewState(cfg)
	s := setState{mkEntry(3, 2), mkEntry(7, 1)}
	out := fifoPersUnknown(&st.satSet, s, 3, 4)
	if i := out.find(3); i < 0 || out[i].age() != 2 {
		t.Fatalf("block 3's bound must stay at 2, got %v", out)
	}
	if i := out.find(7); i < 0 || out[i].age() != 2 {
		t.Fatalf("block 7 must age to 2, got %v", out)
	}

	// A definite miss restarts the block and ages everyone else.
	out = fifoPersMiss(&st.satSet, setState{mkEntry(3, 2), mkEntry(7, 1)}, 3, 4)
	if i := out.find(3); i < 0 || out[i].age() != 0 {
		t.Fatalf("a definite miss reloads block 3 at bound 0, got %v", out)
	}
	if i := out.find(7); i < 0 || out[i].age() != 2 {
		t.Fatalf("block 7 must age to 2, got %v", out)
	}
	if st.nSat != 0 {
		t.Fatalf("no bound reached the limit, yet %d blocks are saturated", st.nSat)
	}

	// A saturated block hit by an unknown access stays saturated, while the
	// young bound that reaches the limit saturates beside it.
	st.satAdd(5)
	out = fifoPersUnknown(&st.satSet, setState{mkEntry(7, 3)}, 5, 4)
	if len(out) != 0 || !st.satHas(5) || !st.satHas(7) || st.nSat != 2 {
		t.Fatalf("block 5 must stay saturated and block 7 saturate, got young %v, %d saturated", out, st.nSat)
	}
	if st.Persistent(5) {
		t.Fatal("a saturated block must not be persistent")
	}

	// A definite miss reloads the saturated block at bound 0.
	out = fifoPersMiss(&st.satSet, out, 5, 4)
	if i := out.find(5); i < 0 || out[i].age() != 0 || st.satHas(5) || st.nSat != 1 {
		t.Fatalf("a definite miss must reload block 5 at bound 0, got young %v, %d saturated", out, st.nSat)
	}
	if !st.Persistent(5) {
		t.Fatal("a reloaded block must be persistent")
	}
}

// The FIFO unknown-access must update keeps the accessed block only at the
// weakest bound (resident either way, position unknown) and ages the rest.
func TestPolicyFIFOMustUnknown(t *testing.T) {
	out := fifoMustUnknown(setState{mkEntry(3, 1), mkEntry(7, 3)}, 9, 4)
	if i := out.find(9); i < 0 || out[i].age() != 3 {
		t.Fatalf("accessed block must enter at assoc-1, got %v", out)
	}
	if i := out.find(3); i < 0 || out[i].age() != 2 {
		t.Fatalf("block 3 must age to 2, got %v", out)
	}
	if out.find(7) >= 0 {
		t.Fatalf("block 7 at bound assoc-1 must fall out when aged, got %v", out)
	}
}

// Under FIFO a definitely-resident block stays classified AH through
// further misses only while its insertion bound allows; under LRU the same
// access pattern keeps it hot. The abstract states must reflect that:
// re-accessing a resident block refreshes the must bound under LRU but not
// under FIFO.
func TestPolicyFIFOAccessDoesNotPromote(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 32, Policy: cache.FIFO} // 1 set
	st := NewState(cfg)
	st.Access(1) // definite miss: must = {1@0}
	st.Access(2) // definite miss: must = {2@0, 1@1}
	st.Access(1) // definite hit: FIFO state untouched
	st.Access(3) // definite miss: shifts 1 out
	if st.MustContains(1) {
		t.Fatal("FIFO: block 1's recent hit must not have refreshed its must bound")
	}

	lruCfg := cfg
	lruCfg.Policy = cache.LRU
	lst := NewState(lruCfg)
	lst.Access(1)
	lst.Access(2)
	lst.Access(1)
	lst.Access(3)
	if !lst.MustContains(1) {
		t.Fatal("LRU: the re-access promotes block 1, which must survive the next miss")
	}
}
