package wcet

import (
	"fmt"

	"ucp/internal/absint"
	"ucp/internal/vivu"
)

// This file keeps the assembly the per-block miss tallies replaced, as the
// reference TestAssembleDifferential holds assemble to. It stores t_w of
// every reference in a row per block, prices the references with its own
// switch, and recounts the misses and fetches in a second walk over every
// instruction of every block on the WCET path. It always assembles from
// scratch: the reuse of a previous result's rows and solve is part of what
// it checks.

// refAssembly is what the reference assembly computes.
type refAssembly struct {
	tw                              [][]int64
	cost, extra, nw                 []int64
	tauW, misses, l2Misses, fetches int64
}

// refAssemble assembles r's per-level classifications from scratch.
func refAssemble(r *Result) (*refAssembly, error) {
	x, par, ai, ai2 := r.X, r.Par, r.AI, r.AI2
	n := len(x.Blocks)
	res := &refAssembly{tw: make([][]int64, n), cost: make([]int64, n), extra: make([]int64, n)}
	l2Hit := par.L2HitCycles
	if ai2 == nil {
		l2Hit = 0
	}
	for _, xb := range x.Blocks {
		id := xb.ID
		instrs := x.Prog.Blocks[xb.Orig].Instrs
		row := make([]int64, len(instrs))
		for i := range instrs {
			c2 := absint.NotClassified
			if ai2 != nil {
				c2 = ai2.Class[id][i]
			}
			t := par.HitCycles
			switch ai.Class[id][i] {
			case absint.AlwaysHit:
			case absint.FirstMiss:
				res.extra[id] += l2Hit
				if c2 != absint.AlwaysHit {
					res.extra[id] += par.MissPenalty
				}
			default:
				t += l2Hit
				switch c2 {
				case absint.AlwaysHit:
				case absint.FirstMiss:
					res.extra[id] += par.MissPenalty
				default:
					t += par.MissPenalty
				}
			}
			row[i] = t
			res.cost[id] += t
		}
		res.tw[id] = row
	}
	plan, err := newSolvePlan(x)
	if err != nil {
		return nil, err
	}
	res.nw, res.tauW = plan.solve(res.cost, res.extra)
	for _, xb := range x.Blocks {
		cnt := res.nw[xb.ID]
		if cnt == 0 {
			continue
		}
		res.fetches += cnt * int64(len(x.Prog.Blocks[xb.Orig].Instrs))
		for i := range x.Prog.Blocks[xb.Orig].Instrs {
			c1 := ai.Class[xb.ID][i]
			switch c1 {
			case absint.AlwaysHit:
				continue
			case absint.FirstMiss:
				res.misses++
			default:
				res.misses += cnt
			}
			if ai2 == nil {
				continue
			}
			switch c2 := ai2.Class[xb.ID][i]; {
			case c2 == absint.AlwaysHit:
			case c1 == absint.FirstMiss || c2 == absint.FirstMiss:
				res.l2Misses++
			default:
				res.l2Misses += cnt
			}
		}
	}
	return res, nil
}

// CheckAssemble reports the first way r differs from the reference
// assembly of its own classifications: RefTime of any reference, Cost,
// Extra, Nw, τ_w, misses, L2 misses or fetches. It is exported to the
// external differential tests.
func CheckAssemble(r *Result) error {
	want, err := refAssemble(r)
	if err != nil {
		return err
	}
	for id, row := range want.tw {
		for i, tw := range row {
			if got := r.RefTime(vivu.Ref{XB: id, Index: i}); got != tw {
				return fmt.Errorf("RefTime(%d, %d) = %d, reference %d", id, i, got, tw)
			}
		}
		if r.Cost[id] != want.cost[id] || r.Extra[id] != want.extra[id] || r.Nw[id] != want.nw[id] {
			return fmt.Errorf("block %d cost/extra/n_w %d/%d/%d, reference %d/%d/%d", id,
				r.Cost[id], r.Extra[id], r.Nw[id], want.cost[id], want.extra[id], want.nw[id])
		}
	}
	if r.TauW != want.tauW || r.Misses != want.misses || r.L2Misses != want.l2Misses || r.Fetches != want.fetches {
		return fmt.Errorf("τ_w/misses/L2 misses/fetches %d/%d/%d/%d, reference %d/%d/%d/%d",
			r.TauW, r.Misses, r.L2Misses, r.Fetches, want.tauW, want.misses, want.l2Misses, want.fetches)
	}
	return nil
}
