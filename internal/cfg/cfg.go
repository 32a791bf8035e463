// Package cfg provides control-flow graph algorithms: reverse postorder,
// topological sorting and dominator trees. The algorithms are generic over
// an adjacency-list representation so they serve both the original program
// CFG and the VIVU-expanded graph.
package cfg

import "fmt"

// Graph is a directed graph in adjacency-list form: Succs[v] lists the
// successors of vertex v. Vertices are 0..N-1 and Entry is the unique start
// vertex.
type Graph struct {
	Succs [][]int
	Entry int
}

// N returns the number of vertices.
func (g Graph) N() int { return len(g.Succs) }

// Preds computes the predecessor lists of g.
func (g Graph) Preds() [][]int {
	preds := make([][]int, g.N())
	for v, ss := range g.Succs {
		for _, s := range ss {
			preds[s] = append(preds[s], v)
		}
	}
	return preds
}

// ReversePostorder returns the vertices reachable from the entry in reverse
// postorder of a depth-first search. For a DAG this is a topological order;
// for a cyclic graph it is the canonical iteration order for forward
// dataflow fixpoints.
func ReversePostorder(g Graph) []int {
	seen := make([]bool, g.N())
	post := make([]int, 0, g.N())
	var dfs func(v int)
	dfs = func(v int) {
		seen[v] = true
		for _, s := range g.Succs[v] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, v)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Topological returns a topological order of the reachable vertices and
// fails if the reachable subgraph contains a cycle.
func Topological(g Graph) ([]int, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, g.N())
	post := make([]int, 0, g.N())
	var dfs func(v int) error
	dfs = func(v int) error {
		color[v] = grey
		for _, s := range g.Succs[v] {
			switch color[s] {
			case grey:
				return fmt.Errorf("cfg: cycle through vertex %d", s)
			case white:
				if err := dfs(s); err != nil {
					return err
				}
			}
		}
		color[v] = black
		post = append(post, v)
		return nil
	}
	if err := dfs(g.Entry); err != nil {
		return nil, err
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post, nil
}

// Dominators computes the immediate-dominator array of g using the
// Cooper–Harvey–Kennedy iterative algorithm. idom[Entry] = Entry; vertices
// unreachable from the entry get idom -1.
func Dominators(g Graph) []int {
	rpo := ReversePostorder(g)
	order := make([]int, g.N()) // order[v] = position of v in rpo
	for i := range order {
		order[i] = -1
	}
	for i, v := range rpo {
		order[v] = i
	}
	preds := g.Preds()
	idom := make([]int, g.N())
	for i := range idom {
		idom[i] = -1
	}
	idom[g.Entry] = g.Entry

	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, v := range rpo {
			if v == g.Entry {
				continue
			}
			newIdom := -1
			for _, p := range preds[v] {
				if order[p] < 0 || idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given the immediate-dominator
// array produced by Dominators.
func Dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		if b == idom[b] || idom[b] == -1 {
			return false
		}
		b = idom[b]
	}
}
