package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/energy"
	"ucp/internal/malardalen"
)

func testL2() cache.Config {
	return cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192}
}

func hierSweep(t *testing.T) *Suite {
	t.Helper()
	s, err := Sweep(context.Background(), Options{
		Programs:         []string{"fdct", "crc"},
		Configs:          []int{0, 13}, // 256B and 1KB L1s
		Techs:            []energy.Tech{energy.Tech45},
		Runs:             1,
		ValidationBudget: 40,
		SkipReduced:      true,
		L2s:              []cache.Config{{}, testL2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepHierarchyAxis(t *testing.T) {
	s := hierSweep(t)
	if len(s.Cells) != 8 {
		t.Fatalf("cells = %d, want 8 (2 programs × 2 configs × 2 L2s)", len(s.Cells))
	}
	sawL2 := false
	for _, c := range s.Cells {
		if c.TauOpt > c.TauOrig {
			t.Fatalf("%s/%s: WCET regressed", c.Program, c.ConfigID)
		}
		if !c.HasL2() {
			if c.L2MissWOrig != 0 || c.L2MissRateOrig != 0 || c.InsertedL2 != 0 {
				t.Fatalf("single-level cell carries L2 measurements: %+v", c)
			}
			continue
		}
		sawL2 = true
		if c.MissWOrig > 0 && c.L2MissWOrig == 0 && c.L2MissRateOrig == 0 {
			t.Errorf("%s/%s: L1 misses but no L2 activity recorded", c.Program, c.ConfigID)
		}
		if c.L2MissWOpt+c.MissWOpt > c.L2MissWOrig+c.MissWOrig {
			t.Errorf("%s/%s: joint WCET misses regressed", c.Program, c.ConfigID)
		}
	}
	if !sawL2 {
		t.Fatal("hierarchy axis produced no L2 cells")
	}
}

// TestSweepSingleLevelByteIdentical is the differential golden check at the
// sweep engine level: threading the hierarchy through optimizer, simulator
// and energy model must leave single-level results byte-for-byte unchanged,
// CSV and figures included.
func TestSweepSingleLevelByteIdentical(t *testing.T) {
	a := smallSweep(t)
	b, err := Sweep(context.Background(), Options{
		Programs:         []string{"fdct", "crc", "minmax"},
		Configs:          []int{0, 13, 32},
		Techs:            []energy.Tech{energy.Tech45},
		Runs:             1,
		ValidationBudget: 40,
		L2s:              []cache.Config{{}}, // explicit single-level axis
	})
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteCSV(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatal("single-level CSV differs between plain and explicit-axis sweeps")
	}
	if strings.Contains(bufA.String(), "l2_assoc") {
		t.Fatal("single-level CSV grew L2 columns")
	}
}

func TestRunCellDegenerateHierarchy(t *testing.T) {
	b, ok := malardalen.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	// L2 block smaller than the L1 block of config 13 → invalid geometry.
	_, err := RunCell(context.Background(), b, 13, energy.Tech45,
		Options{Runs: 1, L2: cache.Config{Assoc: 1, BlockBytes: 4, CapacityBytes: 65536}})
	if err == nil {
		t.Fatal("want error for degenerate hierarchy geometry")
	}
	_, err = RunCell(context.Background(), b, 0, energy.Tech45,
		Options{Runs: 1, L2: cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 128}})
	if err == nil {
		t.Fatal("want error for L2 smaller than L1")
	}
}

func TestHierarchyFrontierRenderer(t *testing.T) {
	s := hierSweep(t)
	var buf bytes.Buffer
	if err := s.HierarchyFrontier(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Hierarchy frontier", "none (single-level)", testL2().String()} {
		if !strings.Contains(out, want) {
			t.Errorf("frontier output missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "l2_capacity_bytes") {
		t.Error("hierarchy sweep CSV missing L2 columns")
	}
}
