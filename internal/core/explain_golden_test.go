package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
)

// explainGoldenFile pins the explain report: one line per run with the
// optimized program's fingerprint and the sha256 of the JSON-encoded Report,
// Decisions included. It covers what the pipeline golden does not — the
// decision reasons, rcost and positions, and the ablation paths (pads
// removed by pruning among them). Like the pipeline golden it is never
// re-recorded to absorb a change in results.
const explainGoldenFile = "testdata/explain_golden.txt"

// explainOptionSet is one option set of the explain golden.
type explainOptionSet struct {
	name string
	opt  func(o *Options)
}

var explainOptionSets = []explainOptionSet{
	{"default", func(*Options) {}},
	{"pad", func(o *Options) { o.PadToBlock = true }},
	{"novalidate", func(o *Options) { o.DisableValidation, o.MaxInsertions = true, 40 }},
	{"noeff-nomiss", func(o *Options) { o.DisableEffectiveness, o.DisableMissCheck = true, true }},
}

// TestExplainGolden runs the default options over the whole suite (the
// first ten programs under -short) on every policy and both golden legs,
// and the three ablation option sets on the first ten programs, comparing
// each run's line with the pinned file. Every run uses the pipeline
// golden's validation budget, which keeps the test affordable under -race.
func TestExplainGolden(t *testing.T) {
	raw, err := os.ReadFile(explainGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		want[strings.Join(f[:4], " ")] = line
	}
	benches := malardalen.All()
	if testing.Short() {
		benches = benches[:10]
	}
	for _, set := range explainOptionSets {
		for _, leg := range []goldenLeg{legL1, legL1L2} {
			for _, pol := range cache.Policies() {
				h, par := goldenHierarchy(pol, leg.l2)
				for bi, b := range benches {
					if set.name != "default" && bi >= 10 {
						break
					}
					key := fmt.Sprintf("%s %s %s %s", b.Name, pol, leg.name, set.name)
					opt := Options{Par: par, ValidationBudget: 25, Explain: true}
					set.opt(&opt)
					q, rep, err := OptimizeHier(context.Background(), b.Prog, h, opt)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					js, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					got := fmt.Sprintf("%s %s %x", key, isa.Fingerprint(q), sha256.Sum256(js))
					if got != want[key] {
						t.Errorf("explain drift:\n got  %s\n want %s", got, want[key])
					}
				}
			}
		}
	}
}
