package wcet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ucp/internal/isa"
	"ucp/internal/isa/isatest"
	"ucp/internal/malardalen"
	"ucp/internal/vivu"
)

// This file keeps the structural solver the solve plan replaced, as the
// reference TestSolvePlanDifferential holds the plan to. It rebuilds the
// loop structure on every solve: each residual region, innermost first, is
// collapsed into a supernode through a union-find over the expanded
// blocks, and the remaining DAG is solved by longest path.

// refSolve is the reference structural solve of cost and extra (extra may
// be nil).
func refSolve(x *vivu.Prog, cost, extra []int64) (nw []int64, tau int64, err error) {
	s := &structSolver{x: x}
	s.init(cost, extra)
	if err := s.collapseLoops(); err != nil {
		return nil, 0, err
	}
	return s.finish()
}

// refRegionMembers lists a loop instance's residual region by the context
// rule, independently of the region tree Expand records: the blocks of the
// original loop whose context extends Enclosing+"R".
func refRegionMembers(x *vivu.Prog, inst vivu.LoopInstance) []int {
	loop := x.Prog.Loops[inst.Orig]
	inLoop := map[int]bool{}
	for _, b := range loop.Blocks {
		inLoop[b] = true
	}
	want := inst.Enclosing + "R"
	var out []int
	for _, xb := range x.Blocks {
		if !inLoop[xb.Orig] {
			continue
		}
		if len(xb.Ctx) >= len(want) && xb.Ctx[:len(want)] == want {
			out = append(out, xb.ID)
		}
	}
	return out
}

// TestSolvePlanDifferential holds the solve plan to the reference solver
// on 300 random structured programs and the Mälardalen suite. Costs drawn
// from spans of 1 to 3 cycles make many paths tie, so the test pins the
// tie-breaking as well as the optimum: n_w and τ_w must be identical on
// every solve, without and with one-time charges.
func TestSolvePlanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var progs []*isa.Program
	for i := 0; i < 300; i++ {
		progs = append(progs, isatest.RandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, b := range malardalen.All() {
		progs = append(progs, b.Prog)
	}
	solves := 0
	for _, p := range progs {
		x, err := vivu.Expand(p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := newSolvePlan(x)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for span := 1; span <= 3; span++ {
			cost := make([]int64, len(x.Blocks))
			extra := make([]int64, len(x.Blocks))
			for i := range cost {
				cost[i] = 1 + rng.Int63n(int64(span))
				if rng.Intn(3) == 0 {
					extra[i] = rng.Int63n(int64(span) + 1)
				}
			}
			for _, ex := range [][]int64{nil, extra} {
				wantNw, wantTau, err := refSolve(x, cost, ex)
				if err != nil {
					t.Fatalf("%s: reference: %v", p.Name, err)
				}
				nw, tau := plan.solve(cost, ex)
				if tau != wantTau {
					t.Fatalf("%s span %d extra %v: τ_w %d, reference %d", p.Name, span, ex != nil, tau, wantTau)
				}
				for id := range wantNw {
					if nw[id] != wantNw[id] {
						t.Fatalf("%s span %d extra %v: n_w[%d] (%s) = %d, reference %d",
							p.Name, span, ex != nil, id, x.Blocks[id].Ctx, nw[id], wantNw[id])
					}
				}
				solves++
			}
		}
	}
	t.Logf("%d solves on %d programs", solves, len(progs))
}

type superNode struct {
	inst     vivu.LoopInstance
	headNode int
	// iterPath is the chosen maximal iteration path (head first, back-edge
	// source last), as node IDs at the time of collapse.
	iterPath []int
	iterCost int64
}

type structSolver struct {
	x *vivu.Prog

	// Node space: 0..nXB-1 are expanded blocks; supernodes appended.
	weight []int64
	// extra holds per-node one-time costs, consumed (folded into the
	// supernode weight) when the node's region collapses; whatever remains
	// at the top level is charged once on the final path.
	extra  []int64
	succs  [][]int
	alive  []bool
	key    []int // topological key (position in x.Topo of the representative)
	find   []int // xblock -> current node
	supers map[int]*superNode

	nXB int
}

func (s *structSolver) init(cost, extra []int64) {
	n := len(s.x.Blocks)
	s.nXB = n
	s.weight = append([]int64(nil), cost...)
	s.extra = make([]int64, n)
	if extra != nil {
		copy(s.extra, extra)
	}
	s.succs = make([][]int, n)
	s.alive = make([]bool, n)
	s.key = make([]int, n)
	s.find = make([]int, n)
	s.supers = map[int]*superNode{}
	for i := 0; i < n; i++ {
		s.alive[i] = true
		s.find[i] = i
	}
	for pos, id := range s.x.Topo {
		s.key[id] = pos
	}
	for _, xb := range s.x.Blocks {
		for _, e := range xb.Succs {
			if !e.Back {
				s.succs[xb.ID] = append(s.succs[xb.ID], e.To)
			}
		}
	}
}

// collapseLoops processes the residual loop regions innermost first.
func (s *structSolver) collapseLoops() error {
	insts := append([]vivu.LoopInstance(nil), s.x.Loops...)
	sort.SliceStable(insts, func(i, j int) bool {
		return len(insts[i].Enclosing) > len(insts[j].Enclosing)
	})
	for _, inst := range insts {
		if inst.HeadRest == -1 {
			continue
		}
		if err := s.collapse(inst); err != nil {
			return err
		}
	}
	return nil
}

func (s *structSolver) collapse(inst vivu.LoopInstance) error {
	members := refRegionMembers(s.x, inst)
	region := map[int]bool{}
	for _, xb := range members {
		region[s.find[xb]] = true
	}
	head := s.find[inst.HeadRest]
	if !region[head] {
		return fmt.Errorf("wcet: loop %d/%s head outside its region", inst.Orig, inst.Enclosing)
	}

	// Back-edge sources (xblock level) and their current nodes.
	backSrc := map[int]bool{}
	for _, p := range s.x.Blocks[inst.HeadRest].Preds {
		for _, e := range s.x.Blocks[p].Succs {
			if e.To == inst.HeadRest && e.Back {
				backSrc[s.find[p]] = true
			}
		}
	}
	if len(backSrc) == 0 {
		return fmt.Errorf("wcet: loop %d/%s has no residual back edge", inst.Orig, inst.Enclosing)
	}

	// Longest head→back-source path inside the region (node-weighted,
	// endpoints included), over the region-internal DAG.
	nodes := make([]int, 0, len(region))
	for n := range region {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return s.key[nodes[i]] < s.key[nodes[j]] })

	const minusInf = int64(-1) << 62
	best := map[int]int64{}
	choice := map[int]int{}
	for n := range region {
		best[n] = minusInf
	}
	best[head] = s.weight[head]
	var iterCost int64 = minusInf
	var iterEnd = -1
	for _, n := range nodes {
		if best[n] == minusInf {
			continue
		}
		if backSrc[n] && best[n] > iterCost {
			iterCost = best[n]
			iterEnd = n
		}
		for _, t := range s.succs[n] {
			if !region[t] {
				continue
			}
			if v := best[n] + s.weight[t]; v > best[t] {
				best[t] = v
				choice[t] = n
			}
		}
	}
	if iterEnd == -1 {
		return fmt.Errorf("wcet: loop %d/%s back-edge source unreachable from its header", inst.Orig, inst.Enclosing)
	}
	var iterPath []int
	for n := iterEnd; ; {
		iterPath = append(iterPath, n)
		if n == head {
			break
		}
		prev, ok := choice[n]
		if !ok {
			return fmt.Errorf("wcet: broken iteration path reconstruction")
		}
		n = prev
	}
	// Reverse to head-first order.
	for i, j := 0, len(iterPath)-1; i < j; i, j = i+1, j-1 {
		iterPath[i], iterPath[j] = iterPath[j], iterPath[i]
	}

	// External successors must all leave from the header (our structured
	// programs have no breaks; the solver checks rather than assumes).
	var exits []int
	for n := range region {
		for _, t := range s.succs[n] {
			if region[t] {
				continue
			}
			if n != head {
				return fmt.Errorf("wcet: loop %d/%s exits from non-header node %d", inst.Orig, inst.Enclosing, n)
			}
			exits = append(exits, t)
		}
	}

	// Create the supernode. Every member's one-time cost (first-miss
	// charges of persistence-classified references) is paid once per
	// region entry, so it folds directly into the supernode's weight.
	nu := len(s.weight)
	b := int64(inst.Bound)
	var regionExtra int64
	for n := range region {
		regionExtra += s.extra[n]
	}
	s.weight = append(s.weight, (b-1)*iterCost+s.weight[head]+regionExtra)
	s.succs = append(s.succs, exits)
	s.alive = append(s.alive, true)
	s.extra = append(s.extra, 0)
	s.key = append(s.key, s.key[head])
	s.supers[nu] = &superNode{inst: inst, headNode: head, iterPath: iterPath, iterCost: iterCost}

	// Redirect external edges into the region (they may only target the
	// header) and retire the region nodes.
	for n := range s.alive[:nu] {
		if !s.alive[n] || region[n] {
			continue
		}
		for i, t := range s.succs[n] {
			if region[t] {
				if t != head {
					return fmt.Errorf("wcet: loop %d/%s entered at non-header node %d", inst.Orig, inst.Enclosing, t)
				}
				s.succs[n][i] = nu
			}
		}
	}
	for n := range region {
		s.alive[n] = false
	}
	for xb := range s.find {
		if region[s.find[xb]] {
			s.find[xb] = nu
		}
	}
	return nil
}

// finish solves the remaining DAG by longest path and reconstructs the
// per-block WCET counts.
func (s *structSolver) finish() ([]int64, int64, error) {
	entry := s.find[s.x.Entry]
	order := make([]int, 0, len(s.weight))
	for n := range s.weight {
		if s.alive[n] {
			order = append(order, n)
		}
	}
	sort.Slice(order, func(i, j int) bool { return s.key[order[i]] < s.key[order[j]] })

	const minusInf = int64(-1) << 62
	best := make([]int64, len(s.weight))
	choice := make([]int, len(s.weight))
	for i := range best {
		best[i] = minusInf
		choice[i] = -1
	}
	// Longest path *to* each node from the entry; process forward, then
	// pick the best sink. (Weights are non-negative, so the longest path
	// always runs entry→sink.)
	best[entry] = s.weight[entry] + s.extra[entry]
	for _, n := range order {
		if best[n] == minusInf {
			continue
		}
		for _, t := range s.succs[n] {
			if v := best[n] + s.weight[t] + s.extra[t]; v > best[t] {
				best[t] = v
				choice[t] = n
			}
		}
	}
	tau := minusInf
	end := -1
	for _, n := range order {
		if len(s.succs[n]) == 0 && best[n] > tau {
			tau = best[n]
			end = n
		}
	}
	if end == -1 {
		return nil, 0, fmt.Errorf("wcet: no reachable sink")
	}

	nw := make([]int64, s.nXB)
	var assign func(node int, mult int64)
	assign = func(node int, mult int64) {
		if sn, ok := s.supers[node]; ok {
			bound := int64(sn.inst.Bound)
			// The header runs once more than the residual iterations (the
			// exit check); every node of the chosen iteration path runs
			// bound-1 times.
			assign(sn.headNode, mult)
			for _, n := range sn.iterPath {
				assign(n, (bound-1)*mult)
			}
			return
		}
		nw[node] += mult
	}
	for n := end; n != -1; n = choice[n] {
		assign(n, 1)
	}
	return nw, tau, nil
}
