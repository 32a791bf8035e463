package cfg

import (
	"testing"
	"testing/quick"
)

// diamond: 0 -> 1,2 -> 3
func diamond() Graph {
	return Graph{Succs: [][]int{{1, 2}, {3}, {3}, {}}, Entry: 0}
}

// loopGraph: 0 -> 1(head) -> 2(body) -> 1, 1 -> 3(exit)
func loopGraph() Graph {
	return Graph{Succs: [][]int{{1}, {2, 3}, {1}, {}}, Entry: 0}
}

func TestReversePostorderDiamond(t *testing.T) {
	rpo := ReversePostorder(diamond())
	if rpo[0] != 0 || rpo[len(rpo)-1] != 3 {
		t.Fatalf("rpo = %v", rpo)
	}
	pos := map[int]int{}
	for i, v := range rpo {
		pos[v] = i
	}
	if pos[0] > pos[1] || pos[0] > pos[2] || pos[1] > pos[3] || pos[2] > pos[3] {
		t.Fatalf("rpo %v is not topological", rpo)
	}
}

func TestTopologicalRejectsCycles(t *testing.T) {
	if _, err := Topological(loopGraph()); err == nil {
		t.Fatal("expected cycle error")
	}
	order, err := Topological(diamond())
	if err != nil {
		t.Fatalf("Topological: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	idom := Dominators(diamond())
	want := []int{0, 0, 0, 0}
	for v, w := range want {
		if idom[v] != w {
			t.Fatalf("idom[%d] = %d, want %d (all %v)", v, idom[v], w, idom)
		}
	}
	if !Dominates(idom, 0, 3) {
		t.Fatal("entry must dominate the sink")
	}
	if Dominates(idom, 1, 3) {
		t.Fatal("side of a diamond must not dominate the join")
	}
}

func TestDominatorsLoop(t *testing.T) {
	idom := Dominators(loopGraph())
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 1 {
		t.Fatalf("idom = %v", idom)
	}
	if !Dominates(idom, 1, 2) || Dominates(idom, 2, 1) {
		t.Fatal("the loop header must dominate its body, not the reverse")
	}
}

func TestPredsInvertsSuccs(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		n := 8
		g := Graph{Succs: make([][]int, n), Entry: 0}
		for _, e := range raw {
			u, v := int(e[0])%n, int(e[1])%n
			g.Succs[u] = append(g.Succs[u], v)
		}
		preds := g.Preds()
		// Every edge present exactly as often in both directions.
		count := func(list []int, v int) int {
			c := 0
			for _, x := range list {
				if x == v {
					c++
				}
			}
			return c
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if count(g.Succs[u], v) != count(preds[v], u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reverse postorder of an acyclic graph is a topological order.
func TestReversePostorderTopologicalProperty(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		n := 10
		g := Graph{Succs: make([][]int, n), Entry: 0}
		for _, e := range raw {
			u, v := int(e[0])%n, int(e[1])%n
			if u < v { // forward edges only: guarantees acyclicity
				g.Succs[u] = append(g.Succs[u], v)
			}
		}
		rpo := ReversePostorder(g)
		pos := map[int]int{}
		for i, v := range rpo {
			pos[v] = i
		}
		for u, ss := range g.Succs {
			if _, ok := pos[u]; !ok {
				continue
			}
			for _, v := range ss {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dominator array computed by the iterative algorithm agrees with
// a brute-force definition (v dominates w iff removing v disconnects w from
// the entry) on small random graphs.
func TestDominatorsAgainstBruteForce(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		n := 7
		g := Graph{Succs: make([][]int, n), Entry: 0}
		for _, e := range raw {
			u, v := int(e[0])%n, int(e[1])%n
			g.Succs[u] = append(g.Succs[u], v)
		}
		idom := Dominators(g)

		reachableWithout := func(skip int) []bool {
			seen := make([]bool, n)
			if skip == 0 {
				return seen
			}
			seen[0] = true
			stack := []int{0}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range g.Succs[u] {
					if v != skip && !seen[v] {
						seen[v] = true
						stack = append(stack, v)
					}
				}
			}
			return seen
		}
		reach := reachableWithout(-1)
		for v := 0; v < n; v++ {
			if !reach[v] {
				continue
			}
			for w := 0; w < n; w++ {
				if !reach[w] || v == w {
					continue
				}
				brute := !reachableWithout(v)[w] // v dominates w
				if Dominates(idom, v, w) != brute {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologicalIgnoresUnreachable(t *testing.T) {
	// Vertex 3 unreachable: order covers only the reachable part.
	g := Graph{Succs: [][]int{{1}, {2}, {}, {2}}, Entry: 0}
	order, err := Topological(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 reachable vertices", order)
	}
}

func TestDominatesReflexive(t *testing.T) {
	idom := Dominators(diamond())
	for v := 0; v < 4; v++ {
		if !Dominates(idom, v, v) {
			t.Fatalf("%d must dominate itself", v)
		}
	}
}
