package absint

import "ucp/internal/vivu"

// sccPlan is the iteration strategy of the fixpoint: the components of the
// expanded graph in topological order, each member list in ACFG
// topological order. Acyclic components are solved by a single transfer
// once their predecessors are final; cyclic components (residual-loop
// regions) iterate locally to convergence. The plan depends only on the
// graph structure — in-place instruction edits keep it valid — so it
// travels inside the Result and is reused across incremental re-analyses.
type sccPlan struct {
	comps  [][]int
	cyclic []bool
}

// buildSCCPlan reads the components off the residual-region tree vivu
// records: a block outside every region is an acyclic singleton, and each
// outermost region, nested loops included, is one cyclic component placed
// at its R header's position in Topo. Every edge into a region enters at
// its header, so this order is topological.
//
// A region can be larger than its strongly-connected component — a
// bound-1 inner loop leaves a dead-end latch inside it — but iterating the
// region to convergence still yields the same least fixpoint: a member
// that cannot reach the back edge feeds only members that cannot either,
// so the others iterate exactly as in the smaller component, and the last
// transfer of such a member takes its predecessors' final values
// (DESIGN.md §8).
func buildSCCPlan(x *vivu.Prog) *sccPlan {
	plan := &sccPlan{}
	for i, id := range x.Topo {
		r := x.Region[id]
		if r == -1 {
			plan.comps = append(plan.comps, x.Topo[i:i+1:i+1])
			plan.cyclic = append(plan.cyclic, false)
			continue
		}
		if inst := x.Loops[r]; inst.HeadRest == id && inst.Parent == -1 {
			plan.comps = append(plan.comps, inst.Members)
			plan.cyclic = append(plan.cyclic, true)
		}
	}
	return plan
}
