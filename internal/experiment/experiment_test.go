package experiment

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/energy"
	"ucp/internal/faults"
	"ucp/internal/malardalen"
)

func smallSweep(t *testing.T) *Suite {
	t.Helper()
	s, err := Sweep(context.Background(), Options{
		Programs:         []string{"fdct", "crc", "minmax"},
		Configs:          []int{0, 13, 32}, // 256B, 1KB, 8KB samples
		Techs:            []energy.Tech{energy.Tech45},
		Runs:             1,
		ValidationBudget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepShape(t *testing.T) {
	s := smallSweep(t)
	if len(s.Cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(s.Cells))
	}
	for _, c := range s.Cells {
		if c.TauOrig <= 0 || c.ACETOrig <= 0 || c.EnergyOrig <= 0 {
			t.Fatalf("%s/%s: degenerate originals: %+v", c.Program, c.ConfigID, c)
		}
		// Theorem 1 and the guards: nothing may regress.
		if c.TauOpt > c.TauOrig {
			t.Fatalf("%s/%s: WCET regressed", c.Program, c.ConfigID)
		}
		if c.ACETOpt > c.ACETOrig*1.003 {
			t.Fatalf("%s/%s: ACET regressed: %.1f -> %.1f", c.Program, c.ConfigID, c.ACETOrig, c.ACETOpt)
		}
		if c.EnergyOpt > c.EnergyOrig*1.003 {
			t.Fatalf("%s/%s: energy regressed", c.Program, c.ConfigID)
		}
	}
}

func TestFigureRenderers(t *testing.T) {
	s := smallSweep(t)
	var buf bytes.Buffer
	s.Headline(&buf)
	s.Figure3(&buf)
	s.Figure4(&buf)
	s.Figure5(&buf)
	s.Figure7(&buf)
	s.Figure8(&buf)
	out := buf.String()
	for _, want := range []string{
		"overall average improvement",
		"Figure 3", "Figure 4", "Figure 5", "Figure 7", "Figure 8",
		"256B", "8192B", "regressed: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figures missing %q", want)
		}
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	Table2(&buf)
	out := buf.String()
	for _, want := range []string{"adpcm", "p37", "(1,16,256)", "k36"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestRunCellReducedCaches(t *testing.T) {
	b, _ := malardalen.ByName("crc")
	cell, err := RunCell(context.Background(), b, 13, energy.Tech45, Options{Runs: 1, ValidationBudget: 20}) // k14 = (2,16,1024)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.HasHalf || !cell.HasQuarter {
		t.Fatalf("1KB cell must have half and quarter runs: %+v", cell)
	}
	if cell.ACETHalf < cell.ACETOpt {
		t.Error("halving the cache should not speed the program up")
	}
	// k1 = (1,16,256): quarter = 64B, valid for assoc 1.
	cellSmall, err := RunCell(context.Background(), b, 0, energy.Tech45, Options{Runs: 1, ValidationBudget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !cellSmall.HasHalf {
		t.Error("256B direct-mapped cell should allow a 128B half-size run")
	}
}

// TestReducedRunFailureFailsCell checks that a reduced run whose
// optimization fails returns the error, so the cell fails instead of
// silently losing its Figure 5 series: an injected error in the analysis's
// cyclic-component rounds stands in for an internal failure.
func TestReducedRunFailureFailsCell(t *testing.T) {
	b, _ := malardalen.ByName("crc")
	h := cache.Hier1(cache.Table2()[13]) // k14 = (2,16,1024)
	if err := faults.Arm("absint.round:*=err"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	_, _, _, ok, err := reducedRun(context.Background(), b, h, 2, energy.Tech45, Options{Runs: 1, ValidationBudget: 20})
	if err == nil || ok {
		t.Fatalf("reduced run under an injected analysis error: ok=%v, err=%v; want the error", ok, err)
	}
	if faults.Count("absint.round") == 0 {
		t.Fatal("the injected fault never fired")
	}
}

// TestParallelSweepDeterministic checks the acceptance property of the
// worker pool: a parallel sweep must produce byte-identical CSV output to
// the serial run, whatever the completion order.
func TestParallelSweepDeterministic(t *testing.T) {
	opts := Options{
		Programs:         []string{"fibcall", "fac", "bs"},
		Configs:          []int{0, 13},
		Techs:            []energy.Tech{energy.Tech45},
		Runs:             1,
		ValidationBudget: 20,
	}
	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 8

	s1, err := Sweep(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := Sweep(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}

	var b1, b8 bytes.Buffer
	if err := s1.WriteCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s8.WriteCSV(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("parallel CSV differs from serial:\nserial:\n%s\nparallel:\n%s", b1.String(), b8.String())
	}

	var f1, f8 bytes.Buffer
	if err := s1.Headline(&f1); err != nil {
		t.Fatal(err)
	}
	if err := s8.Headline(&f8); err != nil {
		t.Fatal(err)
	}
	if f1.String() != f8.String() {
		t.Fatal("parallel headline differs from serial")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, Options{
		Programs: []string{"fibcall"},
		Configs:  []int{0},
		Techs:    []energy.Tech{energy.Tech45},
		Runs:     1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// brokenWriter fails after the first n bytes, as a full disk would.
type brokenWriter struct {
	n   int
	err error
}

func (b *brokenWriter) Write(p []byte) (int, error) {
	if len(p) <= b.n {
		b.n -= len(p)
		return len(p), nil
	}
	n := b.n
	b.n = 0
	return n, b.err
}

// TestRenderersPropagateWriterErrors checks that figure, table, and CSV
// rendering surface I/O failures instead of dropping them.
func TestRenderersPropagateWriterErrors(t *testing.T) {
	s := smallSweep(t)
	sentinel := errors.New("disk full")
	renderers := map[string]func(io.Writer) error{
		"Headline": s.Headline,
		"Figure3":  s.Figure3,
		"Figure4":  s.Figure4,
		"Figure5":  s.Figure5,
		"Figure7":  s.Figure7,
		"Figure8":  s.Figure8,
		"Table1":   Table1,
		"Table2":   Table2,
		"WriteCSV": s.WriteCSV,
	}
	for name, render := range renderers {
		if err := render(&brokenWriter{n: 10, err: sentinel}); !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v, want sentinel", name, err)
		}
		var ok bytes.Buffer
		if err := render(&ok); err != nil {
			t.Errorf("%s: err on healthy writer: %v", name, err)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	s := smallSweep(t)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(s.Cells)+1 {
		t.Fatalf("csv rows = %d, want %d", len(lines), len(s.Cells)+1)
	}
	if !strings.HasPrefix(lines[0], "program,config,assoc") {
		t.Fatalf("csv header: %s", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged csv row: %s", line)
		}
	}
}
