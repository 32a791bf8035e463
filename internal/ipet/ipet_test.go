package ipet

import (
	"testing"

	"ucp/internal/isa"
	"ucp/internal/vivu"
)

func expand(t *testing.T, p *isa.Program) *vivu.Prog {
	t.Helper()
	x, err := vivu.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func unitCosts(x *vivu.Prog) []int64 {
	cost := make([]int64, len(x.Blocks))
	for _, xb := range x.Blocks {
		cost[xb.ID] = int64(len(x.Prog.Blocks[xb.Orig].Instrs))
	}
	return cost
}

func solve(t *testing.T, x *vivu.Prog, cost []int64) *Result {
	t.Helper()
	r, err := Solve(x, cost, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStraightLine(t *testing.T) {
	p := isa.Build("s", isa.Code(10))
	x := expand(t, p)
	r := solve(t, x, unitCosts(x))
	if r.TauW != int64(p.NInstr()) {
		t.Fatalf("TauW = %d, want %d", r.TauW, p.NInstr())
	}
	if r.N[x.Entry] != 1 {
		t.Fatalf("entry count = %d", r.N[x.Entry])
	}
}

func TestDiamondPicksLongArm(t *testing.T) {
	p := isa.Build("d", isa.If(0.5, isa.S(isa.Code(30)), isa.S(isa.Code(5))))
	x := expand(t, p)
	r := solve(t, x, unitCosts(x))
	// Entry (1+1 branch) + long arm (30+1 jump) + join (1 epilogue).
	want := int64(2 + 31 + 1)
	if r.TauW != want {
		t.Fatalf("TauW = %d, want %d", r.TauW, want)
	}
}

func TestLoopBound(t *testing.T) {
	p := isa.Build("l", isa.Loop(7, 4, isa.Code(3)))
	x := expand(t, p)
	r := solve(t, x, unitCosts(x))
	// prologue+jump (2) + head (2 × 8 executions) + body (4 × 7) + epilogue (1).
	want := int64(2 + 2*8 + 4*7 + 1)
	if r.TauW != want {
		t.Fatalf("TauW = %d, want %d", r.TauW, want)
	}
	// Header R context executes bound times.
	head := p.Loops[0].Head
	if n := r.N[x.Lookup(head, "R")]; n != 7 {
		t.Fatalf("headR count = %d, want 7", n)
	}
}

func TestNestedLoopProduct(t *testing.T) {
	p := isa.Build("n", isa.Loop(4, 2, isa.Loop(5, 2, isa.Code(2))))
	x := expand(t, p)
	r := solve(t, x, unitCosts(x))
	// The inner body must run 4 × 5 = 20 times across its four contexts.
	inner := p.Loops[1]
	var bodyTotal int64
	for _, xb := range x.Blocks {
		if xb.Orig != inner.Head && contains(inner.Blocks, xb.Orig) && xb.Orig != p.Loops[0].Head {
			// body blocks of the inner loop
			if len(p.Blocks[xb.Orig].Instrs) == 3 { // 2 + jump
				bodyTotal += r.N[xb.ID]
			}
		}
	}
	if bodyTotal != 20 {
		t.Fatalf("inner body executions = %d, want 20", bodyTotal)
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestFlowConservation(t *testing.T) {
	p := isa.Build("fc", isa.Loop(6, 3, isa.IfThen(0.5, isa.Code(4)), isa.Code(2)), isa.Code(3))
	x := expand(t, p)
	r := solve(t, x, unitCosts(x))
	// Sink executes exactly once; every count non-negative.
	for _, xb := range x.Blocks {
		if r.N[xb.ID] < 0 {
			t.Fatalf("negative count at block %d", xb.ID)
		}
		if len(xb.Succs) == 0 && r.N[xb.ID] != 1 {
			t.Fatalf("sink executes %d times", r.N[xb.ID])
		}
	}
}

func TestBuildRejectsBadCostVector(t *testing.T) {
	p := isa.Build("bad", isa.Code(3))
	x := expand(t, p)
	if _, err := Solve(x, []int64{1, 2, 3, 4, 5, 6, 7}, nil); err == nil {
		t.Fatal("expected cost-length error")
	}
}

// TestExtraChargedToInnermostRegion pins where a one-time charge lands for
// a block in an F context inside a residual region: the inner loop's header
// in context RF lies in the outer loop's region, not in a region of its
// own, so its charge rides on the outer region's entry flow. Unit costs
// make the path's block executions 43; the charge adds 100 once.
func TestExtraChargedToInnermostRegion(t *testing.T) {
	p := isa.Build("rf", isa.Loop(4, 3, isa.Loop(3, 2, isa.Code(2))))
	x := expand(t, p)
	cost := make([]int64, len(x.Blocks))
	for i := range cost {
		cost[i] = 1
	}
	extra := make([]int64, len(x.Blocks))
	rf := x.Lookup(p.Loops[1].Head, "RF")
	if rf == -1 || x.Region[rf] == -1 {
		t.Fatalf("inner header RF copy %d is not in a residual region", rf)
	}
	extra[rf] = 100
	r, err := Solve(x, cost, extra)
	if err != nil {
		t.Fatal(err)
	}
	if r.TauW != 143 {
		t.Fatalf("TauW = %d, want 143 (43 block executions + one charge of 100)", r.TauW)
	}
}
