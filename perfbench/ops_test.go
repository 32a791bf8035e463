package main

import (
	"reflect"
	"testing"

	"ucp/internal/malardalen"
)

func TestSameSeedSameOps(t *testing.T) {
	for _, seed := range []int64{1, 7, 1 << 40} {
		if !reflect.DeepEqual(sweepCells(fig3Programs, false, seed), sweepCells(fig3Programs, false, seed)) {
			t.Errorf("seed %d: fig3 cells differ between calls", seed)
		}
		if !reflect.DeepEqual(serveRequests(seed), serveRequests(seed)) {
			t.Errorf("seed %d: serve requests differ between calls", seed)
		}
	}
	if reflect.DeepEqual(serveRequests(1), serveRequests(2)) {
		t.Error("seeds 1 and 2 give the same serve-mix sequence")
	}
	if reflect.DeepEqual(sweepCells(fig3Programs, false, 1), sweepCells(fig3Programs, false, 2)) {
		t.Error("seeds 1 and 2 give the same sweep order")
	}
}

// bandsOf counts the cells of each program per capacity band.
func bandsOf(cells []cell) map[string][bands]int {
	out := map[string][bands]int{}
	for _, c := range cells {
		n := out[c.Program]
		n[c.Config/geometries]++
		out[c.Program] = n
	}
	return out
}

func TestEverySeedCoversAllBands(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for name, cells := range map[string][]cell{
			"fig3-sweep": sweepCells(fig3Programs, false, seed),
			"hier-sweep": sweepCells(hierPrograms, true, seed),
			"serve-mix":  serveCells(),
		} {
			for prog, n := range bandsOf(cells) {
				if n != [bands]int{1, 1, 1, 1, 1, 1} {
					t.Fatalf("%s seed %d: %s has cells per band %v, want one each", name, seed, prog, n)
				}
			}
		}
	}
	configs := map[int]bool{}
	progs := map[string]bool{}
	for _, c := range serveCells() {
		configs[c.Config] = true
		progs[c.Program] = true
	}
	if len(configs) != bands*geometries {
		t.Errorf("serve-mix covers %d configurations, want %d", len(configs), bands*geometries)
	}
	if want := len(malardalen.Names()) - len(serveSkip); len(progs) != want {
		t.Errorf("serve-mix covers %d programs, want %d", len(progs), want)
	}
}

func TestServeSplitFixedBySeed(t *testing.T) {
	nCold := len(serveCells())
	for seed := int64(0); seed < 20; seed++ {
		seen := map[cell]int{}
		repeats := map[cell]int{}
		cold := 0
		for i, r := range serveRequests(seed) {
			if !r.Repeat {
				cold++
				seen[r.Cell] = i
				continue
			}
			if _, ok := seen[r.Cell]; !ok {
				t.Fatalf("seed %d: request %d repeats %s before its cold request", seed, i, r.Cell)
			}
			repeats[r.Cell]++
		}
		if cold != nCold || len(seen) != nCold {
			t.Fatalf("seed %d: %d cold requests over %d cells, want %d", seed, cold, len(seen), nCold)
		}
		for c, n := range repeats {
			if n != hitsPerCold {
				t.Fatalf("seed %d: %s repeated %d times, want %d", seed, c, n, hitsPerCold)
			}
		}
		if len(repeats) != nCold {
			t.Fatalf("seed %d: %d cells repeated, want %d", seed, len(repeats), nCold)
		}
	}
}
