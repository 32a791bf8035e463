package malardalen

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

func TestSuiteHas37Programs(t *testing.T) {
	all := All()
	if len(all) != 37 {
		t.Fatalf("suite has %d programs, want 37 (Table 1)", len(all))
	}
	seen := map[string]bool{}
	for i, b := range all {
		if b.ID != "p"+itoa(i+1) {
			t.Errorf("%s labeled %s, want p%d", b.Name, b.ID, i+1)
		}
		if seen[b.Name] {
			t.Errorf("duplicate program %s", b.Name)
		}
		seen[b.Name] = true
		if i > 0 && all[i-1].Name >= b.Name {
			t.Errorf("suite not alphabetical at %s", b.Name)
		}
		if b.Note == "" {
			t.Errorf("%s lacks a reconstruction note", b.Name)
		}
	}
}

func TestEveryProgramValidatesAndExpands(t *testing.T) {
	for _, b := range All() {
		if err := isa.Validate(b.Prog); err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if _, err := vivu.Expand(b.Prog); err != nil {
			t.Errorf("%s: expand: %v", b.Name, err)
		}
	}
}

func TestEveryProgramAnalyzesAndRuns(t *testing.T) {
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}
	for _, b := range All() {
		res, err := wcet.AnalyzeHier(context.Background(), b.Prog, cache.Hier1(cfg), par)
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if res.TauW <= 0 {
			t.Errorf("%s: non-positive WCET", b.Name)
		}
		st := sim.RunHier(b.Prog, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 3})
		if st.Fetches == 0 {
			t.Errorf("%s: simulated zero fetches", b.Name)
		}
		// The WCET bound must dominate any simulated run.
		if st.Cycles > res.TauW {
			t.Errorf("%s: simulated %d cycles exceeds WCET bound %d", b.Name, st.Cycles, res.TauW)
		}
	}
}

func TestSizeSpreadCoversCacheLadder(t *testing.T) {
	// The suite must straddle the 256B..8KB ladder: some programs below
	// 512B of text, some above 8KB, most in between.
	var small, large int
	for _, b := range All() {
		bytes := b.Prog.NInstr() * isa.InstrBytes
		if bytes <= 512 {
			small++
		}
		if bytes >= 8192 {
			large++
		}
	}
	if small < 3 {
		t.Errorf("only %d programs under 512B of text", small)
	}
	if large < 2 {
		t.Errorf("only %d programs over 8KB of text", large)
	}
}

func TestMissRateBandAcrossConfigs(t *testing.T) {
	// The paper selected configurations so the pre-optimization average
	// miss rate spans roughly 1..10%. Check the suite reproduces a wide
	// band across the capacity ladder.
	par := wcet.Params{HitCycles: 1, MissPenalty: 16, Lambda: 16}
	var rates []float64
	for _, ci := range []int{1, 13, 25, 34} { // 256B..8KB samples
		cfg := cache.Table2()[ci]
		var sum float64
		n := 0
		for _, b := range All() {
			st := sim.RunHier(b.Prog, cache.Hier1(cfg), sim.Options{Par: par, Runs: 1, Seed: 5})
			sum += st.MissRate()
			n++
		}
		rates = append(rates, sum/float64(n))
	}
	if rates[0] < 0.01 {
		t.Errorf("smallest cache average miss rate %.3f, want >= 1%%", rates[0])
	}
	if rates[len(rates)-1] > 0.10 {
		t.Errorf("largest cache average miss rate %.3f, want <= 10%%", rates[len(rates)-1])
	}
	if rates[0] <= rates[len(rates)-1] {
		t.Errorf("miss rate must fall with capacity: %v", rates)
	}
}

func TestByName(t *testing.T) {
	b, ok := ByName("matmult")
	if !ok || b.Name != "matmult" {
		t.Fatal("ByName(matmult) failed")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("ByName should reject unknown programs")
	}
	if len(Names()) != 37 {
		t.Fatal("Names() must list all 37 programs")
	}
}

func TestNsichneuIsTheGiant(t *testing.T) {
	ns, _ := ByName("nsichneu")
	for _, b := range All() {
		if b.Name != "nsichneu" && b.Prog.NInstr() > ns.Prog.NInstr() {
			t.Fatalf("%s (%d instrs) outgrew nsichneu (%d)", b.Name, b.Prog.NInstr(), ns.Prog.NInstr())
		}
	}
}
