package absint

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/isa/isatest"
	"ucp/internal/vivu"
)

// TestSCCPlanDifferential holds the region-derived fixpoint plan to the
// Tarjan condensation it replaced. Each chain starts from a full analysis,
// swaps in Tarjan's plan, and carries it through seeded AnalyzeChain
// re-analyses of random edits at both levels; after every edit each level's
// Class, Effective and InState rows must equal a full analysis under the
// region plan. The programs are the first 16 of isatest.RandomProgram under
// seed 2 and the first 27 under seed 11. The last of them has a bound-1
// inner loop whose dead-end latch lies inside the outer region but outside
// its strongly-connected component, so there the two plans differ.
func TestSCCPlanDifferential(t *testing.T) {
	const lambda = 10
	steps := 6
	if testing.Short() {
		steps = 3
	}
	var progs []*isa.Program
	for _, set := range []struct{ seed, n int64 }{{2, 16}, {11, 27}} {
		rng := rand.New(rand.NewSource(set.seed))
		for i := int64(0); i < set.n; i++ {
			progs = append(progs, isatest.RandomProgram(rng, fmt.Sprintf("rnd%d.%d", set.seed, i)))
		}
	}
	rng := rand.New(rand.NewSource(22))
	l1s := []cache.Config{
		{Assoc: 1, BlockBytes: 16, CapacityBytes: 128},
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 256},
	}
	ctx := context.Background()
	differ := 0
	check := func(where string, got, want *Result) {
		t.Helper()
		for id := range want.Class {
			if !reflect.DeepEqual(got.Class[id], want.Class[id]) {
				t.Fatalf("%s: block %d classes %v, region plan %v", where, id, got.Class[id], want.Class[id])
			}
			for i := range want.Class[id] {
				if got.Effective(id, i) != want.Effective(id, i) {
					t.Fatalf("%s: block %d ref %d effectiveness %v, region plan %v", where, id, i, got.Effective(id, i), want.Effective(id, i))
				}
			}
			if !got.InState(id).Equal(want.InState(id)) {
				t.Fatalf("%s: block %d in-state differs from the region plan's", where, id)
			}
		}
	}
	for pi, p0 := range progs {
		x0, err := vivu.Expand(p0)
		if err != nil {
			t.Fatal(err)
		}
		regions, tarjan := buildSCCPlan(x0), tarjanPlan(x0)
		if !reflect.DeepEqual(regions, tarjan) {
			differ++
		} else if pi == len(progs)-1 {
			t.Fatalf("%s: the dead-end latch program's plans agree", p0.Name)
		}
		for ci, l1 := range l1s {
			pol := cache.Policies()[(pi+ci)%len(cache.Policies())]
			h := cache.Hierarchy{L1: l1, L2: cache.Config{Assoc: 4, BlockBytes: 64, CapacityBytes: 4 * l1.CapacityBytes, Policy: pol}}
			h.L1.Policy = pol
			p := p0.Clone()
			x, err := vivu.Expand(p)
			if err != nil {
				t.Fatal(err)
			}
			plan := tarjanPlan(x)
			lay := isa.NewLayout(p)
			r1, err := AnalyzeChain(ctx, x, lay, h.L1, lambda, nil, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := AnalyzeChain(ctx, x, lay, h.L2, lambda, r1, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			r1.sccs, r2.sccs = plan, plan
			for step := 1; step <= steps; step++ {
				if !diffMutate(rng, p) {
					continue
				}
				lay = isa.NewLayout(p)
				if r1, err = AnalyzeChain(ctx, x, lay, h.L1, lambda, nil, r1, true); err != nil {
					t.Fatal(err)
				}
				if r2, err = AnalyzeChain(ctx, x, lay, h.L2, lambda, r1, r2, true); err != nil {
					t.Fatal(err)
				}
				if r1.sccs != plan || r2.sccs != plan {
					t.Fatalf("%s step %d: the chain dropped Tarjan's plan", p.Name, step)
				}
				f1, err := AnalyzeChain(ctx, x, lay, h.L1, lambda, nil, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				f2, err := AnalyzeChain(ctx, x, lay, h.L2, lambda, f1, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s %v step %d", p.Name, h, step)
				check(where+" L1", r1, f1)
				check(where+" L2", r2, f2)
			}
		}
	}
	t.Logf("plans differ on %d of %d programs", differ, len(progs))
}

// tarjanPlan is the plan buildSCCPlan replaced, kept as the reference
// TestSCCPlanDifferential holds it to: it runs Tarjan's algorithm over the
// expanded graph and orders the strongly-connected components
// topologically (Tarjan emits them in reverse topological order of the
// condensation).
func tarjanPlan(x *vivu.Prog) *sccPlan {
	n := len(x.Blocks)
	index := make([]int32, n) // 0 = unvisited, else visit order + 1
	low := make([]int32, n)
	onStack := make([]bool, n)
	selfLoop := make([]bool, n)
	stack := make([]int32, 0, n)
	plan := &sccPlan{}
	var next int32
	var strong func(v int)
	strong = func(v int) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, int32(v))
		onStack[v] = true
		for _, e := range x.Blocks[v].Succs {
			w := e.To
			if w == v {
				selfLoop[v] = true
			}
			if index[w] == 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := int(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			plan.comps = append(plan.comps, comp)
			plan.cyclic = append(plan.cyclic, len(comp) > 1 || selfLoop[v])
		}
	}
	for _, v := range x.Topo {
		if index[v] == 0 {
			strong(v)
		}
	}
	// Reverse into condensation topological order.
	for i, j := 0, len(plan.comps)-1; i < j; i, j = i+1, j-1 {
		plan.comps[i], plan.comps[j] = plan.comps[j], plan.comps[i]
		plan.cyclic[i], plan.cyclic[j] = plan.cyclic[j], plan.cyclic[i]
	}
	// Iterate cyclic components in ACFG topological order, which reaches
	// convergence in the fewest passes on reducible regions.
	pos := make([]int32, n)
	for i, v := range x.Topo {
		pos[v] = int32(i)
	}
	for _, comp := range plan.comps {
		if len(comp) > 1 {
			sort.Slice(comp, func(i, j int) bool { return pos[comp[i]] < pos[comp[j]] })
		}
	}
	return plan
}
