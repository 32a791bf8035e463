package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
	"ucp/internal/wcet"
)

// pipelineGoldenFile pins the optimizer's output across the Mälardalen
// suite, the three replacement policies, and both hierarchy legs: one line
// per run with the optimized program's fingerprint and the report numbers.
// It was recorded before the per-level analysis unification and must never
// be re-recorded to absorb a change in results: a refactor of the analysis
// or the optimizer has to reproduce it byte for byte.
const pipelineGoldenFile = "testdata/pipeline_golden.txt"

// goldenLeg is one hierarchy leg of the pinned golden.
type goldenLeg struct {
	name string
	l2   bool
}

var (
	legL1   = goldenLeg{"l1", false}
	legL1L2 = goldenLeg{"l1+l2", true}
)

// goldenHierarchy is the golden's geometry: a 256 B 2-way L1 with 16 B
// blocks, optionally backed by an 8 KiB 4-way L2 with 32 B blocks.
func goldenHierarchy(pol cache.Policy, l2 bool) (cache.Hierarchy, wcet.Params) {
	h := cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256, Policy: pol})
	par := wcet.Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}
	if l2 {
		h.L2 = cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: pol}
		par.L2HitCycles = 3
	}
	return h, par
}

// checkPipelineGolden optimizes every benchmark (the first ten under
// -short) on every policy for one leg and compares each run's line with the
// pinned file. check sees every report, for leg-specific assertions.
func checkPipelineGolden(t *testing.T, leg goldenLeg, check func(name string, rep *Report)) {
	t.Helper()
	raw, err := os.ReadFile(pipelineGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		want[strings.Join(f[:3], " ")] = line
	}
	benches := malardalen.All()
	if testing.Short() {
		benches = benches[:10]
	}
	for _, pol := range cache.Policies() {
		h, par := goldenHierarchy(pol, leg.l2)
		for _, b := range benches {
			key := fmt.Sprintf("%s %s %s", b.Name, pol, leg.name)
			q, rep, err := OptimizeHier(context.Background(), b.Prog, h, Options{Par: par, ValidationBudget: 25})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			check(key, rep)
			got := fmt.Sprintf("%s %s tau=%d/%d misses=%d/%d l2misses=%d/%d inserted=%d validations=%d passes=%d",
				key, isa.Fingerprint(q), rep.TauBefore, rep.TauAfter, rep.MissesBefore, rep.MissesAfter,
				rep.L2MissesBefore, rep.L2MissesAfter, rep.Inserted, rep.Validations, rep.Passes)
			if got != want[key] {
				t.Errorf("pipeline drift:\n got  %s\n want %s", got, want[key])
			}
		}
	}
}

// TestSingleLevelDifferentialGolden pins the L1-only leg of the pipeline
// golden. Single-level runs are the degenerate hierarchy: besides matching
// the pinned lines they must never grow L2 state or L2 misses.
func TestSingleLevelDifferentialGolden(t *testing.T) {
	checkPipelineGolden(t, legL1, func(key string, rep *Report) {
		if rep.L2MissesBefore != 0 || rep.L2MissesAfter != 0 {
			t.Errorf("%s: single-level report carries L2 misses", key)
		}
	})
	for _, pol := range cache.Policies() {
		h, par := goldenHierarchy(pol, false)
		for _, b := range malardalen.All()[:3] {
			r, err := wcet.AnalyzeHier(context.Background(), b.Prog, h, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, pol, err)
			}
			if r.L2Misses != 0 || r.AI2 != nil {
				t.Errorf("%s/%s: single-level analysis grew L2 state", b.Name, pol)
			}
		}
	}
}

// TestHierarchyPipelineGolden pins the L1+L2 leg of the pipeline golden.
func TestHierarchyPipelineGolden(t *testing.T) {
	checkPipelineGolden(t, legL1L2, func(key string, rep *Report) {
		if rep.TauAfter > rep.TauBefore {
			t.Errorf("%s: τ_w grew %d -> %d", key, rep.TauBefore, rep.TauAfter)
		}
	})
}
