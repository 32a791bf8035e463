package ipet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

func TestSimpleLP(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 → x=4, y=0, obj=12.
	p := &lp{obj: []float64{3, 2}, le: [][]float64{{1, 1, 4}, {1, 3, 6}}}
	x, opt, err := p.solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(opt, 12) {
		t.Fatalf("objective = %v", opt)
	}
	if !almost(x[0], 4) || !almost(x[1], 0) {
		t.Fatalf("x = %v", x)
	}
}

func TestLPWithEquality(t *testing.T) {
	// max x + y s.t. x + y = 3, x <= 2 → obj 3.
	p := &lp{obj: []float64{1, 1}, eq: [][]float64{{1, 1, 3}}, le: [][]float64{{1, 0, 2}}}
	_, opt, err := p.solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(opt, 3) {
		t.Fatalf("objective = %v", opt)
	}
}

func TestEqualityOnlySystem(t *testing.T) {
	// x + y = 4, x - y = 2 → x=3, y=1 (unique feasible point).
	p := &lp{obj: []float64{1, 0}, eq: [][]float64{{1, 1, 4}, {1, -1, 2}}}
	x, _, err := p.solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 3) || !almost(x[1], 1) {
		t.Fatalf("x = %v", x)
	}
}

func TestZeroObjective(t *testing.T) {
	p := &lp{obj: []float64{0}, le: [][]float64{{1, 5}}}
	_, opt, err := p.solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(opt, 0) {
		t.Fatalf("objective = %v", opt)
	}
}

func TestInfeasible(t *testing.T) {
	// x = 1 and x = 2 at once.
	p := &lp{obj: []float64{1}, eq: [][]float64{{1, 1}, {1, 2}}}
	if _, _, err := p.solve(); !errors.Is(err, errInfeasible) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := &lp{obj: []float64{1}}
	if _, _, err := p.solve(); !errors.Is(err, errUnbounded) {
		t.Fatalf("err = %v, want unbounded", err)
	}
}

func TestDegenerateConstraintDoesNotCycle(t *testing.T) {
	// A classic degenerate instance; Bland's rule must terminate.
	p := &lp{
		obj: []float64{0.75, -150, 0.02, -6},
		le: [][]float64{
			{0.25, -60, -0.04, 9, 0},
			{0.5, -90, -0.02, 3, 0},
			{0, 0, 1, 0, 1},
		},
	}
	_, opt, err := p.solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(opt, 0.05) {
		t.Fatalf("objective = %v, want 0.05", opt)
	}
}

// Property: the LP optimum of max Σx_i over random ≤-constraints satisfies
// every constraint and is non-negative.
func TestLPSolutionFeasibility(t *testing.T) {
	f := func(seedRows []uint8) bool {
		const nv = 3
		p := &lp{obj: []float64{1, 1, 1}}
		// Bounded box so the LP is never unbounded.
		for i := 0; i < nv; i++ {
			box := make([]float64, nv+1)
			box[i], box[nv] = 1, 10
			p.le = append(p.le, box)
		}
		for r, b := range seedRows {
			if r >= 4 {
				break
			}
			row := make([]float64, nv+1)
			for i := 0; i < nv; i++ {
				row[i] = float64((int(b)>>uint(i))&3) / 2
			}
			row[nv] = float64(3 + int(b)%7)
			p.le = append(p.le, row)
		}
		x, _, err := p.solve()
		if err != nil {
			return false
		}
		for _, row := range p.le {
			lhs := 0.0
			for i := 0; i < nv; i++ {
				lhs += row[i] * x[i]
			}
			if lhs > row[nv]+1e-6 {
				return false
			}
		}
		for _, v := range x {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
