package wcet_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ucp/internal/cache/cachetest"
	"ucp/internal/isa"
	"ucp/internal/isa/isatest"
	"ucp/internal/malardalen"
	"ucp/internal/reuse"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
	"ucp/internal/wcet/wcettest"
)

// TestReuseDifferential re-runs the accept/reject chains of
// TestReleaseDifferential, TestRetireDifferential and
// TestSetScopedDifferential with reuse.Poison on: every buffer a released
// result, a released layout or a closed undo record gives back is
// overwritten with sentinels the moment it is given back. Every
// re-analysis, every live result after an accept or a rollback and every
// accepted result must equal a from-scratch analysis
// (wcettest.SameAsFull), and every undo must restore the program. So a
// buffer given back while something live still reads it fails the test:
// an accepted result's rows, vectors or layout rows, which its successors
// alias, or the n_w that a result with unchanged costs shares with its
// seed. The fdct/FIFO edit of TestAssembleDifferential is such a result,
// and it is released here. The chains run under every policy, or the one
// UCP_POLICY names, on the L1 alone and behind an 8 KiB L2.
func TestReuseDifferential(t *testing.T) {
	restore := reuse.Poison()
	defer restore()
	check := func(t *testing.T, where string, r *wcet.Result) {
		t.Helper()
		if err := wcettest.SameAsFull(r); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	pols := cachetest.Policies(t)
	for _, retire := range []bool{false, true} {
		acceptRejectChains(context.Background(), t, retire, pols, check)
	}

	// TestSetScopedDifferential's random programs, each edited three times
	// under an undo record, the middle edit accepted and the others rolled
	// back, the may demand alternating.
	rng := rand.New(rand.NewSource(31))
	var progs []*isa.Program
	for i := 0; i < 30; i++ {
		progs = append(progs, isatest.RandomProgram(rng, fmt.Sprintf("rnd%d", i)))
	}
	for _, bm := range malardalen.All() {
		progs = append(progs, bm.Prog)
	}
	ctx := context.Background()
	for pi, prog := range progs {
		for _, pol := range pols {
			for _, h := range chainHierarchies(pol) {
				par := diffParams(h)
				am := pi%2 == 0
				where := fmt.Sprintf("%s/%s/am=%v", prog.Name, h, am)
				p := prog.Clone()
				x, err := vivu.Expand(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := wcet.AnalyzeXHierFrom(ctx, x, h, par, nil, am)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 3; step++ {
					before := isa.Fingerprint(p)
					p.BeginUndo()
					if !mutate(rng, p) {
						p.DropUndo()
						continue
					}
					cur, err := wcet.AnalyzeXHierFrom(ctx, x, h, par, res, am)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("%s edit %d", where, step), cur)
					if step == 1 {
						p.DropUndo()
						res.Retire(cur)
						res = cur
					} else {
						p.Undo()
						cur.Release()
						if isa.Fingerprint(p) != before {
							t.Fatalf("%s edit %d: the undo did not restore the program", where, step)
						}
					}
					check(t, fmt.Sprintf("%s after edit %d", where, step), res)
				}
			}
		}
	}

	// A re-analysis whose costs come out unchanged shares its seed's n_w;
	// releasing it must leave the seed's intact.
	seed, edited := fdctFIFOEqualCostEdit(t, func(seed *wcet.Result) { seed.Prog.BeginUndo() })
	if &edited.Nw[0] != &seed.Nw[0] {
		t.Fatal("fdct/FIFO: the equal-cost edit no longer shares its seed's n_w; the case is vacuous")
	}
	edited.Release()
	seed.Prog.Undo()
	check(t, "fdct/FIFO seed after the equal-cost edit was released", seed)
}
