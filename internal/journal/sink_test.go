package journal

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ucp/internal/obs"
)

func openTestSink(t *testing.T, dir string, maxBytes int64) *Sink {
	t.Helper()
	s, err := OpenSink(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSinkWriteAndRead(t *testing.T) {
	dir := t.TempDir()
	s := openTestSink(t, dir, 0)
	ctx := context.Background()

	r := obs.NewRecorder("request")
	r.Release()
	tree := r.Tree()
	if err := s.WriteTrace(ctx, "req-000001", tree); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteEvent(ctx, "job_finished", "req-000002", tree.TraceID, map[string]any{"cells": 4}); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := ReadSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 2 {
		t.Fatalf("records/skipped = %d/%d, want 2/0", len(recs), skipped)
	}
	if recs[0].Kind != "trace" || recs[0].TraceID != tree.TraceID || recs[0].Trace == nil {
		t.Fatalf("trace record = %+v", recs[0])
	}
	if recs[0].Trace.Name != "request" || recs[0].RequestID != "req-000001" {
		t.Fatalf("trace payload = %+v", recs[0].Trace)
	}
	if recs[1].Kind != "event" || recs[1].Event != "job_finished" || recs[1].Attrs["cells"] != float64(4) {
		t.Fatalf("event record = %+v", recs[1])
	}
}

func TestSinkNilIsInert(t *testing.T) {
	var s *Sink
	if err := s.WriteTrace(context.Background(), "", &obs.SpanTree{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteEvent(context.Background(), "e", "", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkCorruptionTolerance: as in a job journal's replay, a corrupt
// line mid-file and a torn final line are skipped, everything else
// replays.
func TestSinkCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	s := openTestSink(t, dir, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.WriteEvent(ctx, "cell_finished", "", "", map[string]any{"index": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the middle line and tear the tail, as a crash mid-append
	// would.
	path := filepath.Join(dir, sinkActive)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	lines[1] = "{\"kind\":\"event\",\"ev" + "%%corrupt%%\n"
	mangled := strings.Join(lines[:3], "") + `{"kind":"event","event":"torn`
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := ReadSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (first and third)", len(recs))
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2 (corrupt middle + torn tail)", skipped)
	}
	if recs[0].Attrs["index"] != float64(0) || recs[1].Attrs["index"] != float64(2) {
		t.Fatalf("surviving records = %+v", recs)
	}

	// Unknown-kind lines are skipped too, not misread as traces.
	if err := os.WriteFile(path, []byte("{\"kind\":\"mystery\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err = ReadSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || skipped != 1 {
		t.Fatalf("unknown kind: records/skipped = %d/%d, want 0/1", len(recs), skipped)
	}
}

func TestSinkRotationBoundsSize(t *testing.T) {
	dir := t.TempDir()
	s := openTestSink(t, dir, 256) // tiny segments force rotation
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := s.WriteEvent(ctx, "cell_finished", "req-000001", "", map[string]any{"index": i}); err != nil {
			t.Fatal(err)
		}
	}
	segs := sinkSegments(dir)
	if len(segs) == 0 {
		t.Fatal("no rotation happened under a tiny segment bound")
	}
	if len(segs) > sinkKeepSegments {
		t.Fatalf("%d rotated segments survive, bound is %d", len(segs), sinkKeepSegments)
	}
	// Pruning dropped the oldest segments; replay still works, oldest
	// surviving record first, and the newest record is present.
	recs, skipped, err := ReadSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) == 0 {
		t.Fatalf("records/skipped = %d/%d", len(recs), skipped)
	}
	last := recs[len(recs)-1]
	if last.Attrs["index"] != float64(99) {
		t.Fatalf("newest record = %+v, want index 99", last)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Attrs["index"].(float64) != recs[i-1].Attrs["index"].(float64)+1 {
			t.Fatalf("replay order broken at %d: %+v", i, recs[i])
		}
	}
}

func TestSinkConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	s := openTestSink(t, dir, 4096)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s.WriteEvent(ctx, "e", "", "", map[string]any{"g": g, "i": i})
			}
		}(g)
	}
	wg.Wait()
	recs, skipped, err := ReadSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("concurrent writes produced %d unparsable lines", skipped)
	}
	if len(recs) == 0 {
		t.Fatal("no records survive")
	}
}
