package vivu

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ucp/internal/isa"
)

func expand(t *testing.T, p *isa.Program) *Prog {
	t.Helper()
	x, err := Expand(p)
	if err != nil {
		t.Fatalf("Expand(%s): %v", p.Name, err)
	}
	return x
}

func TestExpandStraightLine(t *testing.T) {
	p := isa.Build("s", isa.Code(5))
	x := expand(t, p)
	if len(x.Blocks) != 1 {
		t.Fatalf("expanded blocks = %d, want 1", len(x.Blocks))
	}
	if x.Blocks[0].Ctx != "" {
		t.Fatalf("ctx = %q", x.Blocks[0].Ctx)
	}
	if x.NRefs() != p.NInstr() {
		t.Fatalf("NRefs = %d, want %d", x.NRefs(), p.NInstr())
	}
}

func TestExpandSimpleLoop(t *testing.T) {
	p := isa.Build("l", isa.Loop(4, 3, isa.Code(2)))
	x := expand(t, p)
	// Original blocks: entry(pre), head, body, exit. Head and body get F and
	// R copies: 2 + 2*2 = 6 expanded blocks.
	if len(x.Blocks) != 6 {
		t.Fatalf("expanded blocks = %d, want 6", len(x.Blocks))
	}
	if len(x.Loops) != 1 {
		t.Fatalf("loop instances = %d", len(x.Loops))
	}
	inst := x.Loops[0]
	if inst.Bound != 4 || inst.HeadRest == -1 {
		t.Fatalf("instance = %+v", inst)
	}
	// Exactly one back edge: bodyR -> headR.
	var backs int
	for _, xb := range x.Blocks {
		for _, e := range xb.Succs {
			if e.Back {
				backs++
				if e.To != inst.HeadRest {
					t.Fatalf("back edge targets %d, want HeadRest %d", e.To, inst.HeadRest)
				}
				if x.Blocks[xb.ID].Ctx != "R" {
					t.Fatalf("back edge source ctx = %q, want R", xb.Ctx)
				}
			}
		}
	}
	if backs != 1 {
		t.Fatalf("back edges = %d, want 1", backs)
	}
}

func TestExpandBoundOneLoopHasNoRestContext(t *testing.T) {
	p := isa.Build("l1", isa.Loop(1, 1, isa.Code(3)))
	x := expand(t, p)
	for _, xb := range x.Blocks {
		for _, c := range xb.Ctx {
			if c == 'R' {
				t.Fatalf("bound-1 loop produced an R context: %+v", xb)
			}
		}
		for _, e := range xb.Succs {
			if e.Back {
				t.Fatal("bound-1 loop kept a back edge")
			}
		}
	}
	if x.Loops[0].HeadRest != -1 {
		t.Fatalf("HeadRest = %d, want -1", x.Loops[0].HeadRest)
	}
}

func TestExpandNestedLoops(t *testing.T) {
	p := isa.Build("n", isa.Loop(5, 4, isa.Loop(3, 2, isa.Code(1))))
	x := expand(t, p)
	// Inner loop blocks appear in 4 contexts: FF, FR, RF, RR.
	inner := p.Loops[1]
	counts := map[Context]int{}
	for _, xb := range x.Blocks {
		if xb.Orig == inner.Head {
			counts[xb.Ctx]++
		}
	}
	for _, want := range []Context{"FF", "FR", "RF", "RR"} {
		if counts[want] != 1 {
			t.Fatalf("inner head contexts = %v, missing %q", counts, want)
		}
	}
	// Four inner loop instances (one per outer context) + two outer?? No:
	// outer has one instance, inner has two (enclosing F and R).
	var innerInst, outerInst int
	for _, li := range x.Loops {
		if li.Orig == 1 {
			innerInst++
		} else {
			outerInst++
		}
	}
	if outerInst != 1 || innerInst != 2 {
		t.Fatalf("instances outer=%d inner=%d, want 1 and 2", outerInst, innerInst)
	}
}

func TestExpandIfInsideLoop(t *testing.T) {
	p := isa.Build("il", isa.Loop(6, 5, isa.If(0.5, isa.S(isa.Code(2)), isa.S(isa.Code(3)))))
	x := expand(t, p)
	if err := checkTopo(x); err != "" {
		t.Fatal(err)
	}
}

func TestTopoCoversAllBlocksAndRespectsEdges(t *testing.T) {
	progs := []*isa.Program{
		isa.Build("a", isa.Code(3)),
		isa.Build("b", isa.If(0.5, isa.S(isa.Code(1)), nil)),
		isa.Build("c", isa.Loop(9, 4, isa.Code(2), isa.IfThen(0.2, isa.Code(4)))),
		isa.Build("d", isa.Loop(4, 2, isa.Loop(4, 2, isa.Code(1))), isa.Code(2)),
	}
	for _, p := range progs {
		x := expand(t, p)
		if msg := checkTopo(x); msg != "" {
			t.Errorf("%s: %s", p.Name, msg)
		}
	}
}

func checkTopo(x *Prog) string {
	if len(x.Topo) != len(x.Blocks) {
		return "topo does not cover all blocks"
	}
	pos := make([]int, len(x.Blocks))
	for i, id := range x.Topo {
		pos[id] = i
	}
	for _, xb := range x.Blocks {
		for _, e := range xb.Succs {
			if e.Back {
				if pos[e.To] > pos[xb.ID] {
					return "back edge goes forward in topo order"
				}
				continue
			}
			if pos[xb.ID] >= pos[e.To] {
				return "forward edge violates topo order"
			}
		}
	}
	return ""
}

func TestPredsMatchSuccs(t *testing.T) {
	p := isa.Build("pm", isa.Loop(3, 2, isa.IfThen(0.5, isa.Code(2))), isa.Code(1))
	x := expand(t, p)
	count := func(list []int, v int) int {
		c := 0
		for _, e := range list {
			if e == v {
				c++
			}
		}
		return c
	}
	for _, xb := range x.Blocks {
		for _, e := range xb.Succs {
			if count(x.Blocks[e.To].Preds, xb.ID) < 1 {
				t.Fatalf("edge %d->%d missing from Preds", xb.ID, e.To)
			}
		}
	}
}

func TestInstrRefMapsBack(t *testing.T) {
	p := isa.Build("ir", isa.Loop(3, 2, isa.Code(2)))
	x := expand(t, p)
	for _, xb := range x.Blocks {
		for i := range p.Blocks[xb.Orig].Instrs {
			ref := x.InstrRef(Ref{XB: xb.ID, Index: i})
			if ref.Block != xb.Orig || ref.Index != i {
				t.Fatalf("InstrRef mismatch: %v", ref)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	p := isa.Build("lk", isa.Loop(3, 2, isa.Code(2)))
	x := expand(t, p)
	head := p.Loops[0].Head
	if x.Lookup(head, "F") == -1 {
		t.Fatal("missing F instance of loop head")
	}
	if x.Lookup(head, "R") == -1 {
		t.Fatal("missing R instance of loop head")
	}
	if x.Lookup(head, "Z") != -1 {
		t.Fatal("bogus context resolved")
	}
}

func TestContextString(t *testing.T) {
	if Context("").String() != "·" {
		t.Fatal("empty context rendering")
	}
	if Context("FR").String() != "F.R" {
		t.Fatalf("got %q", Context("FR").String())
	}
}

func TestExpandRejectsIrreducibleEdge(t *testing.T) {
	// Hand-build a CFG with an edge jumping into the middle of a loop
	// (bypassing the header): VIVU must refuse it.
	p := isa.Build("irr", isa.Code(2), isa.Loop(3, 2, isa.Code(4)), isa.Code(2))
	body := -1
	head := p.Loops[0].Head
	for _, b := range p.Loops[0].Blocks {
		if b != head {
			body = b
		}
	}
	// Redirect the entry block's jump straight into the body.
	entry := p.Blocks[p.Entry]
	entry.Succs = []int{body}
	if _, err := Expand(p); err == nil {
		t.Fatal("irreducible entry into a loop body must be rejected")
	}
}

func TestExpandRejectsInvalidProgram(t *testing.T) {
	p := isa.Build("bad", isa.Code(3))
	p.Blocks[0].Succs = []int{99}
	if _, err := Expand(p); err == nil {
		t.Fatal("invalid program must be rejected")
	}
}

func TestNRefsMatchesContexts(t *testing.T) {
	p := isa.Build("n", isa.Loop(4, 2, isa.Code(3)))
	x := expand(t, p)
	want := 0
	for _, xb := range x.Blocks {
		want += len(p.Blocks[xb.Orig].Instrs)
	}
	if x.NRefs() != want {
		t.Fatalf("NRefs = %d, want %d", x.NRefs(), want)
	}
}

// TestRegionInvariants pins the residual-region tree Expand records: every
// region's Members are exactly the blocks of its loop in a context that
// extends Enclosing+"R", listed in Topo order with HeadRest first; Region
// names the innermost region containing a block; the Parent chain nests
// strictly; and every back edge runs from a member of a region to its
// R header.
func TestRegionInvariants(t *testing.T) {
	progs := []*isa.Program{
		isa.Build("rm", isa.Loop(4, 2, isa.Loop(3, 2, isa.Code(2)))),
		// A bound-1 inner loop: its body copies in the outer R context
		// belong to the outer region, and its latch is a dead end there.
		isa.Build("b1", isa.Loop(5, 3, isa.Code(2), isa.Loop(1, 0.5, isa.Code(3)), isa.Code(1))),
		isa.Build("deep", isa.Code(1),
			isa.Loop(3, 2, isa.IfThen(0.5, isa.Loop(2, 1, isa.Code(2))), isa.Loop(4, 2, isa.Loop(2, 1, isa.Code(1)))),
			isa.Loop(6, 3, isa.If(0.3, isa.S(isa.Code(4)), isa.S(isa.Loop(2, 1, isa.Code(2)))))),
	}
	for _, p := range progs {
		x := expand(t, p)
		pos := make([]int, len(x.Blocks))
		for i, id := range x.Topo {
			pos[id] = i
		}
		// in[r][xb]: xb lies in region r, by the context rule.
		in := make([][]bool, len(x.Loops))
		regions := 0
		for r, inst := range x.Loops {
			if inst.HeadRest == -1 {
				if inst.Members != nil {
					t.Fatalf("%s: loop %d/%s has no R context but %d members", p.Name, inst.Orig, inst.Enclosing, len(inst.Members))
				}
				continue
			}
			regions++
			in[r] = make([]bool, len(x.Blocks))
			want := inst.Enclosing + "R"
			var members []int
			for _, id := range x.Topo {
				xb := x.Blocks[id]
				if contains(p.Loops[inst.Orig].Blocks, xb.Orig) && strings.HasPrefix(string(xb.Ctx), string(want)) {
					in[r][id] = true
					members = append(members, id)
				}
			}
			if !reflect.DeepEqual(inst.Members, members) {
				t.Fatalf("%s: loop %d/%s members %v, want %v (Topo order)", p.Name, inst.Orig, inst.Enclosing, inst.Members, members)
			}
			if inst.Members[0] != inst.HeadRest {
				t.Fatalf("%s: loop %d/%s members start at %d, not the R header %d", p.Name, inst.Orig, inst.Enclosing, inst.Members[0], inst.HeadRest)
			}
		}
		if regions == 0 {
			t.Fatalf("%s: no residual region", p.Name)
		}
		for _, inst := range x.Loops {
			if par := inst.Parent; par != -1 {
				outer := x.Loops[par]
				if outer.HeadRest == -1 || len(outer.Enclosing) >= len(inst.Enclosing) {
					t.Fatalf("%s: loop %d/%s has parent %d/%s", p.Name, inst.Orig, inst.Enclosing, outer.Orig, outer.Enclosing)
				}
				for _, m := range inst.Members {
					if !in[par][m] {
						t.Fatalf("%s: member %d of loop %d/%s outside its parent region", p.Name, m, inst.Orig, inst.Enclosing)
					}
				}
			}
		}
		for _, xb := range x.Blocks {
			// The regions containing xb are exactly the Parent chain from
			// Region[xb].
			onChain := make([]bool, len(x.Loops))
			for r := x.Region[xb.ID]; r != -1; r = x.Loops[r].Parent {
				onChain[r] = true
			}
			for r := range x.Loops {
				if (in[r] != nil && in[r][xb.ID]) != onChain[r] {
					t.Fatalf("%s: block %d (%s) in region %d: %v, on its Region chain: %v",
						p.Name, xb.ID, xb.Ctx, r, !onChain[r], onChain[r])
				}
			}
			for _, e := range xb.Succs {
				if !e.Back {
					continue
				}
				r := -1
				for i, inst := range x.Loops {
					if inst.HeadRest == e.To {
						r = i
					}
				}
				if r == -1 || !in[r][xb.ID] {
					t.Fatalf("%s: back edge %d->%d leaves its region", p.Name, xb.ID, e.To)
				}
			}
		}
	}
}

func contains(s []int, v int) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

func TestTopologicalRejectsCycles(t *testing.T) {
	// loop: 0 -> 1(head) -> 2(body) -> 1, 1 -> 3(exit)
	if _, err := topological([][]int{{1}, {2, 3}, {1}, {}}, 0); err == nil {
		t.Fatal("expected cycle error")
	}
	// diamond: 0 -> 1,2 -> 3
	order, err := topological([][]int{{1, 2}, {3}, {3}, {}}, 0)
	if err != nil {
		t.Fatalf("topological: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestTopologicalIgnoresUnreachable(t *testing.T) {
	// Vertex 3 unreachable: order covers only the reachable part.
	order, err := topological([][]int{{1}, {2}, {}, {2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 reachable vertices", order)
	}
}

// Property: the topological order is a depth-first reverse postorder, so
// on an acyclic graph every edge between reachable vertices goes forward
// in it.
func TestReversePostorderTopologicalProperty(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		n := 10
		succs := make([][]int, n)
		for _, e := range raw {
			u, v := int(e[0])%n, int(e[1])%n
			if u < v { // forward edges only: guarantees acyclicity
				succs[u] = append(succs[u], v)
			}
		}
		order, err := topological(succs, 0)
		if err != nil {
			return false
		}
		pos := map[int]int{}
		for i, v := range order {
			pos[v] = i
		}
		for u, ss := range succs {
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
