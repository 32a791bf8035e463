package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ucp/internal/faults"
	"ucp/internal/obs"
)

func mustBegin(t *testing.T, l *Journal, id string, total int) *Writer {
	t.Helper()
	w, err := l.Begin(context.Background(), id, time.Now().UTC(), total, json.RawMessage(`{"programs":["fibcall"]}`))
	if err != nil {
		t.Fatalf("Begin(%s): %v", id, err)
	}
	return w
}

func replayOne(t *testing.T, l *Journal) Job {
	t.Helper()
	jobs, err := l.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("Replay returned %d jobs, want 1", len(jobs))
	}
	return jobs[0]
}

func TestJournalRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := mustBegin(t, l, "job-000001", 3)
	if err := w.Cell(ctx, 0, false, 1500*time.Millisecond, json.RawMessage(`{"program":"fibcall","wcet_orig":42}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(ctx, 2, true, 0, json.RawMessage(`{"program":"fac"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.CellFailed(ctx, 1, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(ctx, "done", ""); err != nil {
		t.Fatal(err)
	}

	j := replayOne(t, l)
	if j.ID != "job-000001" || j.Total != 3 || j.State != "done" {
		t.Fatalf("bad replay: %+v", j)
	}
	if len(j.Cells) != 2 || j.Cells[0].Cached || !j.Cells[2].Cached {
		t.Fatalf("bad cells: %+v", j.Cells)
	}
	if j.Cells[0].DurMS != 1500 || j.Cells[2].DurMS != 0 {
		t.Fatalf("durations lost in replay: %+v", j.Cells)
	}
	if !strings.Contains(string(j.Cells[0].Result), `"wcet_orig":42`) {
		t.Fatalf("cell 0 result lost: %s", j.Cells[0].Result)
	}
	if j.Failures[1] != "boom" {
		t.Fatalf("bad failures: %+v", j.Failures)
	}
	if j.Resumed || j.Skipped != 0 {
		t.Fatalf("unexpected resumed=%v skipped=%d", j.Resumed, j.Skipped)
	}
	if j.Finished.IsZero() {
		t.Fatal("finish time not replayed")
	}
}

// TestJournalTornTailTolerated is the crash signature: the process died
// mid-append, leaving a partial final line. Replay must keep everything
// before it and report the job as unfinished (the resume signal).
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := mustBegin(t, l, "job-000001", 4)
	if err := w.Cell(ctx, 0, false, 0, json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(ctx, 1, false, 0, json.RawMessage(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "job-000001.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"cell","index":2,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j := replayOne(t, l)
	if len(j.Cells) != 2 || j.State != "" {
		t.Fatalf("want 2 cells and unfinished state, got %d cells state %q", len(j.Cells), j.State)
	}
	if j.Skipped != 1 {
		t.Fatalf("torn tail should count as 1 skipped line, got %d", j.Skipped)
	}
}

// TestJournalCorruptMidFileSkipsLine: corruption in the middle must not
// shadow the valid records after it.
func TestJournalCorruptMidFileSkipsLine(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := mustBegin(t, l, "job-000001", 2)
	if err := w.Cell(ctx, 0, false, 0, json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := filepath.Join(dir, "job-000001.ndjson")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, []byte("NOT JSON AT ALL\n")...)
	b = append(b, []byte(`{"type":"cell","index":1,"result":{"a":2}}`+"\n")...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j := replayOne(t, l)
	if len(j.Cells) != 2 {
		t.Fatalf("want both cells despite mid-file garbage, got %+v", j.Cells)
	}
	if j.Skipped != 1 {
		t.Fatalf("want 1 skipped line, got %d", j.Skipped)
	}
}

// TestJournalSeqSurvivesPrune: the high-water mark must outlive the
// journal files themselves — the service's expired-404 contract needs IDs
// retired forever even after pruning.
func TestJournalSeqSurvivesPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := mustBegin(t, l, "job-000007", 1)
	w.Finish(context.Background(), "done", "")
	if got := l.Seq(); got != 7 {
		t.Fatalf("Seq after Begin = %d, want 7", got)
	}
	if err := l.Remove("job-000007"); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Seq(); got != 7 {
		t.Fatalf("Seq after Remove+reopen = %d, want 7 (SEQ file must persist)", got)
	}
	jobs, err := l2.Replay()
	if err != nil || len(jobs) != 0 {
		t.Fatalf("removed job still replays: %v %v", jobs, err)
	}
}

// TestJournalSeqFromFilenameOnly: a crash between file creation and SEQ
// persistence leaves the filename as the only witness of the allocation.
func TestJournalSeqFromFilenameOnly(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000042.ndjson"),
		[]byte(`{"type":"submit","v":1,"id":"job-000042","total":1,"sweep":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, seqFile))
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 42 {
		t.Fatalf("Seq from filename = %d, want 42", got)
	}
}

func TestJournalResumeMarker(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := mustBegin(t, l, "job-000001", 3)
	if err := w.Cell(ctx, 0, false, 0, json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	w.Close() // crash: no terminal record

	w2, err := l.Resume(ctx, "job-000001")
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := w2.Cell(ctx, 1, false, 0, json.RawMessage(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Cell(ctx, 2, false, 0, json.RawMessage(`{"a":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Finish(ctx, "done", ""); err != nil {
		t.Fatal(err)
	}

	j := replayOne(t, l)
	if !j.Resumed {
		t.Fatal("resume marker lost")
	}
	if len(j.Cells) != 3 || j.State != "done" {
		t.Fatalf("bad resumed replay: %+v", j)
	}
}

// TestJournalForeignFilesIgnored: the SEQ file, editor droppings, and
// non-job names must never confuse replay.
func TestJournalForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"notes.txt":          "hello",
		"evil.ndjson":        `{"type":"submit","id":"evil","total":1}` + "\n",
		"job-garbage.ndjson": "not a journal\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := mustBegin(t, l, "job-000001", 1)
	w.Finish(context.Background(), "done", "")
	j := replayOne(t, l)
	if j.ID != "job-000001" {
		t.Fatalf("replayed wrong job: %+v", j)
	}
}

func TestJournalInvalidIDRejected(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "job-", "job-0", "../../etc/passwd", "job-1x", "other-1"} {
		if id == "job-0" {
			continue // numeric but < 1, checked below
		}
		if _, err := l.Begin(context.Background(), id, time.Now(), 1, nil); err == nil {
			t.Errorf("Begin(%q) accepted", id)
		}
	}
	if _, err := l.Begin(context.Background(), "job-0", time.Now(), 1, nil); err == nil {
		t.Error(`Begin("job-0") accepted`)
	}
}

// TestJournalAppendFaultSite: the journal.append hook must surface as an
// append error (which the service treats as a durability downgrade, not a
// job failure).
func TestJournalAppendFaultSite(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := mustBegin(t, l, "job-000001", 2)
	if err := faults.Arm("journal.append:*=err"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	if err := w.Cell(ctx, 0, false, 0, json.RawMessage(`{"a":1}`)); err == nil {
		t.Fatal("armed journal.append fault did not fire")
	}
	faults.Disarm()
	if err := w.Cell(ctx, 0, false, 0, json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
	if err := w.Finish(ctx, "done", ""); err != nil {
		t.Fatal(err)
	}
	if j := replayOne(t, l); len(j.Cells) != 1 {
		t.Fatalf("want 1 cell, got %+v", j.Cells)
	}
}

// TestJournalReplayOrderPastSixDigits: IDs are zero-padded to six digits
// only, so "job-1000000" sorts before "job-999999" as a string. Replay must
// return jobs in sequence order, because a restart adopts them in that
// order and prunes the oldest finished ones first.
func TestJournalReplayOrderPastSixDigits(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1000000", "job-999999"} {
		if err := mustBegin(t, l, id, 1).Finish(context.Background(), "done", ""); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "job-999999" || jobs[1].ID != "job-1000000" {
		var ids []string
		for _, j := range jobs {
			ids = append(ids, j.ID)
		}
		t.Fatalf("replay order = %v, want [job-999999 job-1000000]", ids)
	}
}

// TestJournalReplaysCompatFixtures replays directories written by the
// implementation that predates the shared log core (testdata/compat): a
// job journal with a resumed, finished job, an unfinished job with a torn
// tail, and a SEQ mark past both files; and a trace sink with one rotated
// segment and a corrupt line in the active one. Existing files must keep
// replaying to exactly these values.
func TestJournalReplaysCompatFixtures(t *testing.T) {
	l, err := Open(filepath.Join("testdata", "compat", "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 3 {
		t.Fatalf("Seq = %d, want 3 (from SEQ; job-000003 was pruned)", got)
	}
	jobs, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	wantJobs := []Job{{
		ID:      "job-000001",
		Created: created,
		Total:   3,
		Sweep:   json.RawMessage(`{"programs":["fibcall","fac","bs"],"configs":["k1"],"techs":["45nm"],"runs":1}`),
		Cells: map[int]Cell{
			0: {DurMS: 1500, Result: json.RawMessage(`{"program":"fibcall","config":"k1","wcet_orig":1234,"wcet_opt":1200}`)},
			1: {Cached: true, Result: json.RawMessage(`{"program":"fac","config":"k1","wcet_orig":321,"wcet_opt":321}`)},
			2: {DurMS: 42, Result: json.RawMessage(`{"program":"bs","config":"k1","wcet_orig":555,"wcet_opt":540}`)},
		},
		Failures: map[int]string{}, // cell 1 failed, then succeeded after the resume
		Resumed:  true,
		State:    "done",
		Finished: time.Date(2026, 10, 17, 6, 3, 41, 995675848, time.UTC),
	}, {
		ID:       "job-000002",
		Created:  created.Add(time.Minute),
		Total:    2,
		Sweep:    json.RawMessage(`{"programs":["crc"],"configs":["k1","k14"],"techs":["45nm"],"runs":1}`),
		Cells:    map[int]Cell{0: {DurMS: 7, Result: json.RawMessage(`{"program":"crc","config":"k1","wcet_orig":9000,"wcet_opt":8800}`)}},
		Failures: map[int]string{},
		Skipped:  1, // the torn cell record
	}}
	if !reflect.DeepEqual(jobs, wantJobs) {
		t.Fatalf("jobs replayed as\n%+v\nwant\n%+v", jobs, wantJobs)
	}

	recs, skipped, err := ReadSink(filepath.Join("testdata", "compat", "sink"))
	if err != nil {
		t.Fatal(err)
	}
	const traceID = "f1bbcdcbfa53e0a88ff34785799e5cbd"
	at := func(ns int) time.Time { return time.Date(2026, 10, 17, 6, 3, 46, ns, time.UTC) }
	event := func(ns, index int) SinkRecord {
		return SinkRecord{Kind: "event", Time: at(ns), RequestID: "job-000001", TraceID: traceID,
			Event: "cell_finished", Attrs: map[string]any{"index": float64(index)}}
	}
	wantRecs := []SinkRecord{
		{Kind: "trace", Time: at(968643936), RequestID: "req-000001", TraceID: traceID, Trace: &obs.SpanTree{
			Name: "request", TraceID: traceID, SpanID: "2e2ac13ef8e8d8d2", Attrs: map[string]any{"program": "fibcall"},
		}},
		event(969009052, 0), // trace-000001.ndjson
		event(969092874, 1),
		event(969164495, 2), // trace.ndjson; index 3 is the corrupt line
		event(969390641, 4),
	}
	if skipped != 1 || !reflect.DeepEqual(recs, wantRecs) {
		t.Fatalf("sink replayed as %d skipped\n%+v\nwant 1 skipped\n%+v", skipped, recs, wantRecs)
	}
}

// FuzzReplay feeds arbitrary bytes to both readers of the shared line
// reader: to Replay as one job's journal file and to ReadSink as the
// active trace segment. Neither may panic. A replayed job must stay within
// the bounds its submit record sets; every non-empty line must come back
// exactly once as a sink record or a skipped line; and appending one
// garbage line must add one to each skip count and change nothing else.
// The corpus holds both formats' seed sets, each whole, so the empty input
// appears once in each.
func FuzzReplay(f *testing.F) {
	// Job-journal seeds.
	const submit = `{"v":1,"type":"submit","id":"job-000001","created":"2026-01-01T00:00:00Z","total":3,"sweep":{"programs":["fibcall"]}}`
	f.Add([]byte(submit + "\n"))
	f.Add([]byte(submit + "\n" +
		`{"type":"cell","index":0,"dur_ms":1500,"result":{"program":"fibcall","wcet_orig":42}}` + "\n" +
		`{"type":"cellfail","index":1,"error":"boom"}` + "\n" +
		`{"type":"resume"}` + "\n" +
		`{"type":"cell","index":2,"cached":true,"result":{"program":"fac"}}` + "\n" +
		`{"type":"finish","state":"done","finished":"2026-01-01T00:00:01Z"}` + "\n"))
	f.Add([]byte(submit + "\n" + `{"type":"cell","index":2,"resu`))
	f.Add([]byte(submit + "\nNOT JSON AT ALL\n" + `{"type":"cell","index":1,"result":{"a":2}}` + "\n"))
	f.Add([]byte(`{"type":"cell","index":0,"result":{}}` + "\n" + submit + "\n"))
	f.Add([]byte("not a journal\n"))
	f.Add([]byte{})
	// Trace-sink seeds.
	f.Add([]byte(`{"kind":"trace","request_id":"req-000001","trace_id":"0123456789abcdef0123456789abcdef","trace":{"name":"request"}}` + "\n" +
		`{"kind":"event","event":"job_finished","request_id":"req-000002","attrs":{"cells":4}}` + "\n"))
	f.Add([]byte(`{"kind":"event","event":"cell_finished","attrs":{"index":0}}` + "\n" +
		"{\"kind\":\"event\",\"ev%%corrupt%%\n" +
		`{"kind":"event","event":"torn`))
	f.Add([]byte("{\"kind\":\"mystery\"}\n"))
	f.Add([]byte("\r\n\n{}\r\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= maxLine {
			t.Skip("an over-long line ends a read by design")
		}
		type result struct {
			job      Job
			ok       bool
			recs     []SinkRecord
			sinkSkip int
		}
		read := func(data []byte) result {
			dir := t.TempDir()
			for _, name := range []string{"job-000001.ndjson", sinkActive} {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := l.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) > 1 {
				t.Fatalf("one file replayed as %d jobs", len(jobs))
			}
			var r result
			if len(jobs) == 1 {
				r.job, r.ok = jobs[0], true
			}
			if r.recs, r.sinkSkip, err = ReadSink(dir); err != nil {
				t.Fatal(err)
			}
			return r
		}

		r := read(data)
		if r.ok {
			j := r.job
			if j.ID != "job-000001" || j.Total <= 0 {
				t.Fatalf("replayed job without a valid submit record: %+v", j)
			}
			for i := range j.Cells {
				if i < 0 || i >= j.Total {
					t.Fatalf("cell index %d outside [0,%d)", i, j.Total)
				}
			}
			for i := range j.Failures {
				if i < 0 || i >= j.Total {
					t.Fatalf("failure index %d outside [0,%d)", i, j.Total)
				}
			}
			if j.State != "" && j.State != "done" && j.State != "failed" {
				t.Fatalf("replayed state %q", j.State)
			}
		}
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				lines++
			}
		}
		if len(r.recs)+r.sinkSkip != lines {
			t.Fatalf("%d sink records + %d skipped != %d non-empty lines", len(r.recs), r.sinkSkip, lines)
		}
		for _, rec := range r.recs {
			if rec.Kind != "trace" && rec.Kind != "event" {
				t.Fatalf("returned a sink record of kind %q", rec.Kind)
			}
		}

		r2 := read(append(append([]byte(nil), data...), "\n\x00garbage\n"...))
		if r2.ok != r.ok {
			t.Fatalf("a trailing garbage line changed whether the job replays (%v -> %v)", r.ok, r2.ok)
		}
		j, j2 := r.job, r2.job
		if r.ok && (j2.Skipped != j.Skipped+1 || len(j2.Cells) != len(j.Cells) || j2.State != j.State) {
			t.Fatalf("trailing garbage line: skipped %d -> %d, cells %d -> %d, state %q -> %q",
				j.Skipped, j2.Skipped, len(j.Cells), len(j2.Cells), j.State, j2.State)
		}
		if r2.sinkSkip != r.sinkSkip+1 || len(r2.recs) != len(r.recs) {
			t.Fatalf("trailing garbage line: sink skipped %d -> %d, records %d -> %d",
				r.sinkSkip, r2.sinkSkip, len(r.recs), len(r2.recs))
		}
	})
}
