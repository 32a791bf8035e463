// Package ipet solves the Implicit Path Enumeration Technique formulation of
// WCET analysis (Section 3.2–3.3 of the paper) over the VIVU-expanded graph:
// a linear program whose variables are edge execution counts, whose
// constraints encode flow conservation and the loop bounds, and whose
// objective maximizes the memory contribution Σ t_w(bb)·n_bb. The program is
// solved by a from-scratch dense two-phase simplex; the relaxation of these
// network-like instances is integral, and Solve verifies that it is.
//
// The fast structural solver in internal/wcet computes the same optimum for
// the reducible graphs our builder produces; this package is the reference
// implementation the structural solver is validated against.
package ipet

import (
	"errors"
	"fmt"
	"math"

	"ucp/internal/vivu"
)

// Result is the solved WCET scenario.
type Result struct {
	// TauW is the memory contribution to the WCET (Equation 3).
	TauW int64
	// N[xb] is the execution count n_w of expanded block xb in the WCET
	// scenario (Section 3.3).
	N []int64
}

// Solve builds and solves the IPET instance for the expanded program x.
// cost[xb] is the WCET-scenario time of one execution of expanded block xb
// (the t_w(bb) of Equation 1). extra, which may be nil, holds per-block
// one-time costs — the encoding of first-miss (persistence)
// classifications — charged once per entry of the innermost residual loop
// region containing the block (x.Region), or once on the block's one
// execution outside every region. A region's charge attaches to its entry
// flow: the non-back edges into its HeadRest block.
func Solve(x *vivu.Prog, cost, extra []int64) (*Result, error) {
	if len(cost) != len(x.Blocks) {
		return nil, fmt.Errorf("ipet: cost vector length %d != %d blocks", len(cost), len(x.Blocks))
	}
	if extra != nil && len(extra) != len(x.Blocks) {
		return nil, fmt.Errorf("ipet: extra vector length %d != %d blocks", len(extra), len(x.Blocks))
	}

	// One variable per edge, then a virtual entry edge, then one virtual
	// exit edge per sink block.
	type edge struct {
		from, to int
		back     bool
	}
	var edges []edge
	for _, xb := range x.Blocks {
		for _, e := range xb.Succs {
			edges = append(edges, edge{xb.ID, e.To, e.Back})
		}
	}
	entryVar := len(edges)
	n := entryVar + 1
	for _, xb := range x.Blocks {
		if len(xb.Succs) == 0 {
			n++
		}
	}
	row := func() []float64 { return make([]float64, n+1) }

	// One-time charges (first-miss classifications): each block's charge
	// rides on the entry flow of its innermost residual region only;
	// enclosing regions would double-count it (their entries subsume the
	// inner entries). A block outside every region executes at most once,
	// so its charge joins its per-execution cost.
	unit := make([]float64, len(x.Blocks))
	regionExtra := make([]float64, len(x.Loops))
	for b, r := range x.Region {
		unit[b] = float64(cost[b])
		switch {
		case extra == nil:
		case r == -1:
			unit[b] += float64(extra[b])
		default:
			regionExtra[r] += float64(extra[b])
		}
	}

	// Objective: Σ cost(b) · n_b, with n_b expressed as the inflow of b.
	// Flow conservation: inflow(b) − outflow(b) = 0 for every block.
	p := &lp{obj: make([]float64, n)}
	flow := make([][]float64, len(x.Blocks))
	for b := range flow {
		flow[b] = row()
	}
	for v, e := range edges {
		p.obj[v] = unit[e.to]
		flow[e.to][v]++
		flow[e.from][v]--
	}
	p.obj[entryVar] = unit[x.Entry]
	flow[x.Entry][entryVar] = 1
	exitVar := entryVar + 1
	for _, xb := range x.Blocks {
		if len(xb.Succs) == 0 {
			flow[xb.ID][exitVar] = -1
			exitVar++
		}
	}

	// The program executes exactly once.
	entry := row()
	entry[entryVar], entry[n] = 1, 1
	p.eq = append(flow, entry)

	for r, inst := range x.Loops {
		if inst.HeadRest == -1 {
			continue
		}
		// Loop bound: the residual back-edge flow into HeadRest is at most
		// (bound−1) times the flow entering HeadFirst.
		bound := row()
		if inst.HeadFirst == x.Entry {
			bound[entryVar] = -float64(inst.Bound - 1)
		}
		for v, e := range edges {
			switch {
			case e.to == inst.HeadFirst:
				bound[v] = -float64(inst.Bound - 1)
			case e.to == inst.HeadRest && e.back:
				bound[v]++
			case e.to == inst.HeadRest:
				p.obj[v] += regionExtra[r]
			}
		}
		p.le = append(p.le, bound)
	}

	sol, opt, err := p.solve()
	if err != nil {
		return nil, fmt.Errorf("ipet: %w", err)
	}
	acc := make([]float64, len(x.Blocks))
	for v, e := range edges {
		acc[e.to] += sol[v]
	}
	acc[x.Entry] += sol[entryVar]
	counts := make([]int64, len(x.Blocks))
	for b, a := range acc {
		counts[b] = int64(a + 0.5)
		if diff := a - float64(counts[b]); diff > 1e-4 || diff < -1e-4 {
			return nil, fmt.Errorf("ipet: non-integral count %g for block %d", a, b)
		}
	}
	// The objective carries the per-block costs and the per-entry
	// first-miss charges, so the optimum itself is τ_w.
	return &Result{TauW: int64(math.Round(opt)), N: counts}, nil
}

// lp maximizes obj·x over x ≥ 0 subject to the = rows eq and the ≤ rows le.
// Every row holds len(obj) coefficients followed by its right-hand side,
// which must be non-negative.
type lp struct {
	obj    []float64
	eq, le [][]float64
}

var (
	errInfeasible = errors.New("infeasible")
	errUnbounded  = errors.New("unbounded")
)

const eps = 1e-7

// tableau is the dense simplex tableau. Columns are laid out as
// [structural | one slack per ≤ row | one artificial per = row | rhs];
// the = rows come first, basic in their artificials, then the ≤ rows,
// basic in their slacks.
type tableau struct {
	a     [][]float64
	basis []int // basis[r] is the column basic in row r
	art   int   // first artificial column
	cols  int   // columns excluding rhs
}

// solve runs a two-phase primal simplex under Bland's anti-cycling rule and
// returns the optimal x and objective value.
func (p *lp) solve() ([]float64, float64, error) {
	n := len(p.obj)
	t := &tableau{art: n + len(p.le), cols: n + len(p.le) + len(p.eq)}
	add := func(src []float64, basic int) {
		r := make([]float64, t.cols+1)
		copy(r, src[:n])
		r[basic], r[t.cols] = 1, src[n]
		t.a = append(t.a, r)
		t.basis = append(t.basis, basic)
	}
	for i, r := range p.eq {
		add(r, t.art+i)
	}
	for i, r := range p.le {
		add(r, n+i)
	}

	if len(p.eq) > 0 {
		// Phase 1: drive the artificials to zero by maximizing −Σ art.
		obj := make([]float64, t.cols)
		for j := t.art; j < t.cols; j++ {
			obj[j] = -1
		}
		val, err := t.optimize(obj, t.cols)
		if err != nil {
			return nil, 0, err
		}
		if val < -eps {
			return nil, 0, errInfeasible
		}
		// Pivot any artificial still basic (at zero) out of the basis. One
		// with no non-artificial entry sits in a redundant row and stays:
		// phase 2 never lets an artificial enter, so it remains zero.
		for r, b := range t.basis {
			if b < t.art {
				continue
			}
			for j := 0; j < t.art; j++ {
				if math.Abs(t.a[r][j]) > eps {
					t.pivot(r, j)
					break
				}
			}
		}
	}

	// Phase 2: the real objective, with no artificial column entering.
	obj := make([]float64, t.cols)
	copy(obj, p.obj)
	if _, err := t.optimize(obj, t.art); err != nil {
		return nil, 0, err
	}
	x := make([]float64, n)
	for r, b := range t.basis {
		if b < n && math.Abs(t.a[r][t.cols]) >= eps {
			x[b] = t.a[r][t.cols]
		}
	}
	opt := 0.0
	for j, c := range p.obj {
		opt += c * x[j]
	}
	return x, opt, nil
}

// optimize runs the primal simplex for obj (maximization), letting only the
// columns j < enter enter the basis, and returns the optimal value.
func (t *tableau) optimize(obj []float64, enter int) (float64, error) {
	m := len(t.a)
	for iter := 0; ; iter++ {
		if iter > 20000+50*(m+t.cols) {
			return 0, errors.New("simplex iteration limit exceeded")
		}
		// Bland's rule: the first column with a positive reduced cost enters.
		in := -1
		for j := 0; j < enter && in == -1; j++ {
			rc := obj[j]
			for r, b := range t.basis {
				if obj[b] != 0 {
					rc -= obj[b] * t.a[r][j]
				}
			}
			if rc > eps {
				in = j
			}
		}
		if in == -1 {
			val := 0.0
			for r, b := range t.basis {
				val += obj[b] * t.a[r][t.cols]
			}
			return val, nil
		}
		// Ratio test; ties go to the smallest basic column.
		out := -1
		best := math.Inf(1)
		for r := range t.a {
			if t.a[r][in] > eps {
				ratio := t.a[r][t.cols] / t.a[r][in]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (out == -1 || t.basis[r] < t.basis[out])) {
					best, out = ratio, r
				}
			}
		}
		if out == -1 {
			return 0, errUnbounded
		}
		t.pivot(out, in)
	}
}

func (t *tableau) pivot(r, c int) {
	row := t.a[r]
	pv := row[c]
	for j := range row {
		row[j] /= pv
	}
	for r2, other := range t.a {
		if f := other[c]; r2 != r && f != 0 {
			for j := range other {
				other[j] -= f * row[j]
			}
		}
	}
	t.basis[r] = c
}
