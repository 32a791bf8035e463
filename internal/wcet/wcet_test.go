package wcet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/ipet"
	"ucp/internal/isa"
	"ucp/internal/isa/isatest"
	"ucp/internal/malardalen"
	"ucp/internal/vivu"
)

var testPar = Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}

func analyze(t *testing.T, p *isa.Program, cfg cache.Config) *Result {
	t.Helper()
	res, err := AnalyzeHier(context.Background(), p, cache.Hier1(cfg), testPar)
	if err != nil {
		t.Fatalf("AnalyzeHier(%s): %v", p.Name, err)
	}
	return res
}

func TestStraightLineWCET(t *testing.T) {
	// 12 instructions (prologue + 10 + epilogue), cold cache, block 16B =
	// 4 instructions: 3 misses + 9 hits = 3*10 + 9*1 = 39.
	p := isa.Build("s", isa.Code(10))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	res := analyze(t, p, cfg)
	if res.TauW != 39 {
		t.Fatalf("TauW = %d, want 39", res.TauW)
	}
	if res.Misses != 3 || res.Fetches != 12 {
		t.Fatalf("misses=%d fetches=%d", res.Misses, res.Fetches)
	}
}

func TestIfTakesLongerArm(t *testing.T) {
	// Arms of 4 and 40 instructions: the WCET path must take the long arm.
	p := isa.Build("if", isa.If(0.5, isa.S(isa.Code(4)), isa.S(isa.Code(40))))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 4096}
	res := analyze(t, p, cfg)

	short, long := -1, -1
	for _, xb := range res.X.Blocks {
		n := len(p.Blocks[xb.Orig].Instrs)
		if n == 5 { // 4 + jump
			short = xb.ID
		}
		if n == 41 {
			long = xb.ID
		}
	}
	if short == -1 || long == -1 {
		t.Fatal("arm blocks not found")
	}
	if res.Nw[long] != 1 || res.Nw[short] != 0 {
		t.Fatalf("Nw long=%d short=%d", res.Nw[long], res.Nw[short])
	}
}

func TestLoopBoundScalesWCET(t *testing.T) {
	mk := func(bound int) *isa.Program {
		return isa.Build("lb", isa.Loop(bound, float64(bound), isa.Code(6)))
	}
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	r10 := analyze(t, mk(10), cfg)
	r20 := analyze(t, mk(20), cfg)
	if r20.TauW <= r10.TauW {
		t.Fatalf("TauW(20)=%d should exceed TauW(10)=%d", r20.TauW, r10.TauW)
	}
	// With a cache-resident body, doubling the bound adds exactly
	// 10 * (hits per iteration) cycles.
	// body: 6 ops + jump = 7 refs; head: 2 refs. One extra iteration adds
	// 9 hit cycles.
	if diff := r20.TauW - r10.TauW; diff != 10*9 {
		t.Fatalf("TauW difference = %d, want 90", diff)
	}
}

func TestHeaderCountsBoundPlusOne(t *testing.T) {
	p := isa.Build("h", isa.Loop(5, 3, isa.Code(4)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	res := analyze(t, p, cfg)
	head := p.Loops[0].Head
	f := res.X.Lookup(head, "F")
	r := res.X.Lookup(head, "R")
	if res.Nw[f] != 1 {
		t.Fatalf("Nw(headF) = %d, want 1", res.Nw[f])
	}
	if res.Nw[r] != 5 {
		t.Fatalf("Nw(headR) = %d, want 5 (bound)", res.Nw[r])
	}
}

func TestNestedLoopCounts(t *testing.T) {
	p := isa.Build("n", isa.Loop(4, 3, isa.Loop(3, 2, isa.Code(2))))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	res := analyze(t, p, cfg)
	innerHead := p.Loops[1].Head
	// Inner head in FF: first outer iteration, first inner check: 1.
	if n := res.Nw[res.X.Lookup(innerHead, "FF")]; n != 1 {
		t.Fatalf("Nw(FF) = %d, want 1", n)
	}
	// Inner head in FR: first outer iteration, later checks: 3 (= inner bound).
	if n := res.Nw[res.X.Lookup(innerHead, "FR")]; n != 3 {
		t.Fatalf("Nw(FR) = %d, want 3", n)
	}
	// Outer R iterations: 3 of them, each 1 first check + 3 later checks.
	if n := res.Nw[res.X.Lookup(innerHead, "RF")]; n != 3 {
		t.Fatalf("Nw(RF) = %d, want 3", n)
	}
	if n := res.Nw[res.X.Lookup(innerHead, "RR")]; n != 9 {
		t.Fatalf("Nw(RR) = %d, want 9", n)
	}
}

func TestTauEqualsCostDotNw(t *testing.T) {
	p := isa.Build("dot", isa.Loop(7, 4, isa.IfThen(0.4, isa.Code(12)), isa.Code(3)), isa.Code(5))
	cfg := cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 256}
	res := analyze(t, p, cfg)
	var sum, extras int64
	for id, n := range res.Nw {
		sum += res.Cost[id] * n
	}
	for _, e := range res.Extra {
		extras += e
	}
	if res.TauW < sum || res.TauW > sum+extras {
		t.Fatalf("TauW = %d outside [Σcost·n, +extras] = [%d, %d]", res.TauW, sum, sum+extras)
	}
}

// The load-bearing cross-check: the fast structural solver must agree with
// the IPET integer linear program on τ_w for a corpus of random structured
// programs and several cache configurations, and for the Mälardalen suite.
func TestStructuralMatchesIPET(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfgs := []cache.Config{
		{Assoc: 1, BlockBytes: 16, CapacityBytes: 128},
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 4, BlockBytes: 32, CapacityBytes: 512},
	}
	for i := 0; i < 25; i++ {
		p := isatest.RandomProgram(rng, "rnd")
		for _, cfg := range cfgs {
			res, err := AnalyzeHier(context.Background(), p, cache.Hier1(cfg), testPar)
			if err != nil {
				t.Fatalf("AnalyzeHier: %v", err)
			}
			ref, err := ipet.Solve(res.X, res.Cost, res.Extra)
			if err != nil {
				t.Fatalf("ipet.Solve: %v", err)
			}
			if ref.TauW != res.TauW {
				t.Fatalf("program %d cfg %v: structural τ=%d, IPET τ=%d", i, cfg, res.TauW, ref.TauW)
			}
		}
	}

	// Every suite program once at Table 2 k1, rotating the replacement
	// policy, with an 8 KiB L2 behind every seventh program.
	pols := cache.Policies()
	for i, b := range malardalen.All() {
		h := cache.Hier1(cache.Table2()[0])
		h.L1.Policy = pols[i%len(pols)]
		par := testPar
		if i%7 == 0 {
			h.L2 = cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: h.L1.Policy}
			par.L2HitCycles = 3
		}
		res, err := AnalyzeHier(context.Background(), b.Prog, h, par)
		if err != nil {
			t.Fatalf("%s: AnalyzeHier: %v", b.Name, err)
		}
		ref, err := ipet.Solve(res.X, res.Cost, res.Extra)
		if err != nil {
			t.Fatalf("%s: ipet.Solve: %v", b.Name, err)
		}
		if ref.TauW != res.TauW {
			t.Fatalf("%s %v: structural τ=%d, IPET τ=%d", b.Name, h, res.TauW, ref.TauW)
		}
	}
}

// The structural counts must themselves be IPET-feasible: conservation and
// loop bounds hold.
func TestStructuralCountsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	for i := 0; i < 25; i++ {
		p := isatest.RandomProgram(rng, "feas")
		res, err := AnalyzeHier(context.Background(), p, cache.Hier1(cfg), testPar)
		if err != nil {
			t.Fatal(err)
		}
		x := res.X
		// Entry executes once.
		if res.Nw[x.Entry] != 1 {
			t.Fatalf("entry count = %d", res.Nw[x.Entry])
		}
		// Conservation: inflow == count for every non-entry block with the
		// chosen-path semantics (inflow counts only non-back plus back).
		// We verify the loop bounds instead, which is the binding fact.
		for _, inst := range x.Loops {
			entries := res.Nw[inst.HeadFirst]
			if inst.HeadRest == -1 {
				continue
			}
			rest := res.Nw[inst.HeadRest]
			if rest > int64(inst.Bound)*entries {
				t.Fatalf("loop %d/%s: headR count %d exceeds bound %d × entries %d",
					inst.Orig, inst.Enclosing, rest, inst.Bound, entries)
			}
		}
		// Non-negative counts.
		for id, n := range res.Nw {
			if n < 0 {
				t.Fatalf("negative count %d at block %d", n, id)
			}
		}
	}
}

func TestSmallerCacheNeverFasterWCET(t *testing.T) {
	// Monotonicity: growing the cache (same assoc/block) must not increase
	// τ_w.
	p := isa.Build("mono",
		isa.Loop(12, 9, isa.Code(30), isa.IfThen(0.5, isa.Code(25))),
		isa.Loop(6, 4, isa.Code(40)),
	)
	var prev int64 = 1 << 62
	for _, capacity := range []int{256, 512, 1024, 2048, 4096} {
		cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: capacity}
		res := analyze(t, p, cfg)
		if res.TauW > prev {
			t.Fatalf("τ_w grew from %d to %d when capacity reached %d", prev, res.TauW, capacity)
		}
		prev = res.TauW
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{HitCycles: 0, MissPenalty: 10, Lambda: 10},
		{HitCycles: 1, MissPenalty: 0, Lambda: 10},
		{HitCycles: 1, MissPenalty: 10, Lambda: 0},
	}
	for _, par := range bad {
		if err := par.Valid(); err == nil {
			t.Errorf("params %+v should be invalid", par)
		}
	}
	if (Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}).MissCycles() != 10 {
		t.Error("MissCycles arithmetic")
	}
}

func TestRefAccessors(t *testing.T) {
	p := isa.Build("acc", isa.Loop(3, 2, isa.Code(2)))
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	res := analyze(t, p, cfg)
	head := p.Loops[0].Head
	rF := vivu.Ref{XB: res.X.Lookup(head, "F"), Index: 0}
	rR := vivu.Ref{XB: res.X.Lookup(head, "R"), Index: 0}
	if res.RefCount(rF) != 1 || res.RefCount(rR) != 3 {
		t.Fatalf("counts: F=%d R=%d", res.RefCount(rF), res.RefCount(rR))
	}
	if res.Contribution(rR) != res.RefTime(rR)*3 {
		t.Fatal("Contribution arithmetic")
	}
	if !res.OnWCETPath(rR.XB) {
		t.Fatal("loop header R must be on the WCET path")
	}
}

// TestMayDemandPublicAnalysesKeepAlwaysMiss pins that the public analyses,
// whose class counts ucp-wcet and the benchmark's unknown-share probes
// print, resolve AlwaysMiss at both levels under every policy, and that a
// re-analysis seeded from one keeps doing so. Its table pins the demand
// AnalyzeXHierFrom derives for a chain's first analysis, over every
// policy, the L1 alone and behind an L2, and both values of am: the L1
// resolves AlwaysMiss when am is set or an L2's access gate reads it, the
// L2 when am is set, and a FIFO level always (its transfer reads the may
// component). Re-analyses seeded from it keep its answers whatever am they
// are passed.
func TestMayDemandPublicAnalysesKeepAlwaysMiss(t *testing.T) {
	ctx := context.Background()
	bm, _ := malardalen.ByName("crc")
	par := Params{HitCycles: 1, MissPenalty: 9, Lambda: 10, L2HitCycles: 3}
	prefetch := isa.Instr{Kind: isa.KindPrefetch, Target: isa.InstrRef{Block: 1, Index: 0}}
	for _, pol := range cache.Policies() {
		h := cache.Hierarchy{
			L1: cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256, Policy: pol},
			L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: pol},
		}
		r, err := AnalyzeHier(ctx, bm.Prog.Clone(), h, par)
		if err != nil {
			t.Fatal(err)
		}
		p := r.Prog
		p.InsertInstr(isa.InstrRef{Block: 0, Index: 0}, prefetch)
		again, err := AnalyzeXHierFrom(ctx, r.X, h, par, r, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{r, again} {
			for lvl, ai := range []*absint.Result{res.AI, res.AI2} {
				am := 0
				for _, row := range ai.Class {
					for _, c := range row {
						if c == absint.AlwaysMiss {
							am++
						}
					}
				}
				if !ai.HasAlwaysMiss() || am == 0 {
					t.Errorf("%v L%d: %d AlwaysMiss verdicts (HasAlwaysMiss %v)", pol, lvl+1, am, ai.HasAlwaysMiss())
				}
			}
		}

		fifo := pol == cache.FIFO
		for _, hh := range []cache.Hierarchy{cache.Hier1(h.L1), h} {
			for _, am := range []bool{false, true} {
				where := fmt.Sprintf("%v %s am=%v", pol, hh, am)
				want := []bool{am || hh.HasL2() || fifo, am || fifo}
				if !hh.HasL2() {
					want = want[:1]
				}
				x, err := vivu.Expand(bm.Prog.Clone())
				if err != nil {
					t.Fatal(err)
				}
				res, err := AnalyzeXHierFrom(ctx, x, hh, par, nil, am)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if got := demandOf(res); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: seed HasAlwaysMiss per level %v, want %v", where, got, want)
				}
				for _, next := range []bool{!am, am} {
					x.Prog.InsertInstr(isa.InstrRef{Block: 0, Index: 0}, prefetch)
					if res, err = AnalyzeXHierFrom(ctx, x, hh, par, res, next); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if res.AI.Changed == nil {
						t.Fatalf("%s: the re-analysis passed am=%v was not seeded", where, next)
					}
					if got := demandOf(res); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: re-analysis passed am=%v: HasAlwaysMiss per level %v, want the seed's %v", where, next, got, want)
					}
				}
			}
		}
	}
}

// demandOf lists r's HasAlwaysMiss answers, the L1's first.
func demandOf(r *Result) []bool {
	d := []bool{r.AI.HasAlwaysMiss()}
	if r.AI2 != nil {
		d = append(d, r.AI2.HasAlwaysMiss())
	}
	return d
}
