package wcet

import (
	"fmt"

	"ucp/internal/reuse"
	"ucp/internal/vivu"
)

// solvePlan is the structural WCET solve laid out once per expansion. The
// solve is a hierarchical reduction: every residual loop region, innermost
// first, collapses into one node whose weight accounts for its bounded
// iteration, and the top level is solved by longest path. The regions and
// their nesting come from the tree vivu.Expand records, and inserting a
// prefetch never changes the expanded graph, so the plan travels down the
// Result chain and every solve is a few passes over slices. For the
// network-like IPET instances our structured programs generate this yields
// exactly the ILP optimum (a property checked against internal/ipet in
// tests) at a fraction of the cost.
type solvePlan struct {
	nBlocks int
	// levels holds the top level first, then one level per residual region
	// in the Topo order of the R headers, so every region comes after the
	// regions enclosing it.
	levels []planLevel
	nNodes int // total nodes over all levels

	// The solve's working arrays, laid out once per plan: the node
	// weights, longest-path values and predecessor choices of every level,
	// and each level's collapsed weight and path end.
	nodeW, best []int64
	choice      []int32
	weight      []int64
	last        []int32
	// The vectors the chain's released results gave back, one of each
	// kind (see Result.Release): the next assembly takes Cost, Extra and
	// the tallies, and the next solve its n_w.
	cost, extra, nw reuse.Slot[int64]
	tally           reuse.Slot[tally]
}

// planLevel is one region, or the top level, as a DAG of nodes in ACFG
// order. A node is a block whose innermost region this level is, or a
// child region collapsed into the node of its R header. A region's node 0
// is its R header; the top level's is the entry.
type planLevel struct {
	bound int64 // the region's loop bound; 0 at the top level
	off   int   // offset of this level's nodes in the solve's flat buffers
	nodes []int // block IDs
	// child[i] is the level of the child region node i stands for, or -1.
	child []int
	// end[i] marks a node that may end the level's longest path: a source
	// of the region's back edges, or a sink at the top level.
	end  []bool
	succ [][]int32 // positions of each node's successors on this level
}

// newSolvePlan lays out the regions of x and checks the structure the
// solve relies on: every region is entered and left only at its R header
// and has a residual back edge. Every expanded block is reachable and a
// region is entered only at its header, so every node of a level is
// reachable from its node 0.
func newSolvePlan(x *vivu.Prog) (*solvePlan, error) {
	// regionOf[li] is the region of level li (-1 for the top level), and
	// levelOf[r+1] the level of region r.
	regionOf := []int{-1}
	levelOf := make([]int, len(x.Loops)+1)
	for _, id := range x.Topo {
		if r := x.Region[id]; r != -1 && x.Loops[r].HeadRest == id {
			levelOf[r+1] = len(regionOf)
			regionOf = append(regionOf, r)
		}
	}
	p := &solvePlan{nBlocks: len(x.Blocks), levels: make([]planLevel, len(regionOf))}

	// at[id] is the position of the node standing for block id on the
	// level that holds it as a node: its region's level, or its parent's
	// for an R header (which is node 0 of its own level).
	at := make([]int, len(x.Blocks))
	for _, id := range x.Topo {
		r, child := x.Region[id], -1
		if r != -1 && x.Loops[r].HeadRest == id {
			child = levelOf[r+1]
			p.levels[child].nodes = append(p.levels[child].nodes, id)
			p.levels[child].child = append(p.levels[child].child, -1)
			r = x.Loops[r].Parent
		}
		lv := &p.levels[levelOf[r+1]]
		at[id] = len(lv.nodes)
		lv.nodes = append(lv.nodes, id)
		lv.child = append(lv.child, child)
	}

	// nodeOn returns the position of the node standing for block id on the
	// level of region r, and the child region containing id (-1 when id is
	// a node of r itself); the position is -1 when id lies outside r.
	nodeOn := func(r, id int) (pos, child int) {
		c := x.Region[id]
		if c == r {
			if r != -1 && x.Loops[r].HeadRest == id {
				return 0, -1
			}
			return at[id], -1
		}
		for c != -1 && x.Loops[c].Parent != r {
			c = x.Loops[c].Parent
		}
		if c == -1 {
			return -1, -1
		}
		return at[x.Loops[c].HeadRest], c
	}

	for li, r := range regionOf {
		lv := &p.levels[li]
		lv.end = make([]bool, len(lv.nodes))
		lv.succ = make([][]int32, len(lv.nodes))
		for i, id := range lv.nodes {
			inner := -1 // the region node i collapses, whose own edges stay inside it
			if lv.child[i] != -1 {
				inner = x.Region[id]
			}
			for _, e := range x.Blocks[id].Succs {
				if e.Back {
					continue
				}
				if inner != -1 {
					if pos, _ := nodeOn(inner, e.To); pos != -1 {
						continue
					}
				}
				pos, c := nodeOn(r, e.To)
				switch {
				case pos == -1 && i != 0:
					return nil, fmt.Errorf("wcet: loop %d/%s exits from non-header block %d",
						x.Loops[r].Orig, x.Loops[r].Enclosing, id)
				case pos == -1:
					continue // the header's exit, taken on the parent level
				case c != -1 && e.To != x.Loops[c].HeadRest:
					return nil, fmt.Errorf("wcet: loop %d/%s entered at non-header block %d",
						x.Loops[c].Orig, x.Loops[c].Enclosing, e.To)
				}
				lv.succ[i] = append(lv.succ[i], int32(pos))
			}
			lv.end[i] = r == -1 && len(lv.succ[i]) == 0
		}
		if r != -1 {
			inst := x.Loops[r]
			lv.bound = int64(inst.Bound)
			back := false
			for _, src := range x.Blocks[inst.HeadRest].Preds {
				pos, _ := nodeOn(r, src)
				for _, e := range x.Blocks[src].Succs {
					if e.To == inst.HeadRest && e.Back && pos != -1 {
						lv.end[pos], back = true, true
					}
				}
			}
			if !back {
				return nil, fmt.Errorf("wcet: loop %d/%s has no residual back edge", inst.Orig, inst.Enclosing)
			}
		}
		lv.off = p.nNodes
		p.nNodes += len(lv.nodes)
	}
	p.nodeW, p.best, p.choice = make([]int64, p.nNodes), make([]int64, p.nNodes), make([]int32, p.nNodes)
	p.weight, p.last = make([]int64, len(p.levels)), make([]int32, len(p.levels))
	return p, nil
}

// solve computes the WCET scenario for per-block costs cost and one-time
// costs extra (nil for none): the counts n_w and the memory time τ_w. A
// block's extra is charged once per entry of its innermost residual region
// (the IPET encoding of first-miss charges), or once on the path outside
// every region.
//
// Each level makes one longest-path pass in ACFG order, relaxing with a
// strict >, so among equal paths the one through the earliest node wins;
// its end is the first end node with the strictly greatest value.
//
// The working arrays live in the plan, so solves along one chain must not
// run concurrently; nw is taken from the plan's spare (see Result.Release).
func (p *solvePlan) solve(cost, extra []int64) (nw []int64, tau int64) {
	const minusInf = int64(-1) << 62
	nodeW, best, choice, weight, last := p.nodeW, p.best, p.choice, p.weight, p.last
	const top = 0
	for li := len(p.levels) - 1; li >= top; li-- {
		lv := &p.levels[li]
		w := nodeW[lv.off : lv.off+len(lv.nodes)]
		b, ch := best[lv.off:lv.off+len(lv.nodes)], choice[lv.off:]
		var regionExtra int64
		for i, id := range lv.nodes {
			b[i] = minusInf
			if c := lv.child[i]; c != -1 {
				w[i] = weight[c]
				continue
			}
			w[i] = cost[id]
			if extra == nil {
				continue
			}
			if li == top {
				w[i] += extra[id]
			} else {
				regionExtra += extra[id]
			}
		}
		b[0] = w[0]
		endVal, end := minusInf, int32(-1)
		for i := range lv.nodes {
			if b[i] == minusInf {
				continue
			}
			if lv.end[i] && b[i] > endVal {
				endVal, end = b[i], int32(i)
			}
			for _, j := range lv.succ[i] {
				if v := b[i] + w[j]; v > b[j] {
					b[j], ch[j] = v, int32(i)
				}
			}
		}
		last[li] = end
		if li == top {
			tau = endVal
		} else {
			// The header runs once more than the residual iterations (the
			// exit check); the chosen iteration path, header included, runs
			// bound-1 times, and the region's one-time charges once.
			weight[li] = (lv.bound-1)*endVal + cost[lv.nodes[0]] + regionExtra
		}
	}

	nw = p.nw.Take(p.nBlocks)
	var assign func(li, i int, mult int64)
	assign = func(li, i int, mult int64) {
		lv := &p.levels[li]
		c := lv.child[i]
		if c == -1 {
			nw[lv.nodes[i]] += mult
			return
		}
		cl := &p.levels[c]
		nw[cl.nodes[0]] += mult
		for j := last[c]; ; j = choice[cl.off+int(j)] {
			assign(c, int(j), (cl.bound-1)*mult)
			if j == 0 {
				break
			}
		}
	}
	for i := last[top]; ; i = choice[p.levels[top].off+int(i)] {
		assign(top, int(i), 1)
		if i == 0 {
			break
		}
	}
	return nw, tau
}
