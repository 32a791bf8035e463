// Package journal is the durable-job layer: an append-only, per-job NDJSON
// journal that records a sweep job's lifecycle — submit → per-cell
// done/failed → terminal state — so a ucp-serve restart can resume queued
// and running jobs exactly where they left off instead of silently losing
// them with the in-memory job store.
//
// The package also holds the trace sink (sink.go), the other durable
// NDJSON log. Both stand on one core (log.go): every append is a single
// write followed by fsync, and replay is corruption-tolerant — a torn final
// line (the signature of a crash mid-append) or an unparsable line is
// skipped, never fatal, because losing one cell record only costs one
// re-executed cell. The job sequence high-water mark is persisted via
// atomic temp+rename.
//
// One file per job (<id>.ndjson) keeps appends contention-free across jobs
// and makes removal (job pruning) a single unlink. The submit record
// embeds the original sweep request as opaque JSON and each cell record
// embeds the cell's full result payload, so replay can answer completed
// cells with zero pipeline runs even without a result store.
package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// version tags the submit record so a future format change can replay old
// journals knowingly.
const version = 1

// record is the NDJSON wire form, a union over the record types:
//
//	submit   opens a job: id, creation time, total cells, the sweep request
//	cell     one completed cell: index, cache provenance, result payload
//	cellfail one failed cell: index and the sanitized error
//	resume   a restart picked the job back up (informational marker)
//	finish   terminal state ("done" or "failed") and, if failed, why
type record struct {
	Type string `json:"type"`

	// submit fields.
	V       int             `json:"v,omitempty"`
	ID      string          `json:"id,omitempty"`
	Created time.Time       `json:"created,omitzero"`
	Total   int             `json:"total,omitempty"`
	Sweep   json.RawMessage `json:"sweep,omitempty"`

	// cell / cellfail fields.
	Index  int             `json:"index,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	DurMS  int64           `json:"dur_ms,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	// finish fields.
	State    string    `json:"state,omitempty"`
	Finished time.Time `json:"finished,omitzero"`
}

// Cell is one replayed completed cell.
type Cell struct {
	Cached bool
	// DurMS is the cell's wall-clock analysis duration in milliseconds
	// (0 for records written before the field existed, or cache hits fast
	// enough to round down). Resume seeds its ETA estimate from it.
	DurMS  int64
	Result json.RawMessage
}

// Job is one job reconstructed by Replay.
type Job struct {
	ID      string
	Created time.Time
	Total   int
	// Sweep is the original submit payload, opaque to this package; the
	// service re-resolves it into use cases on resume.
	Sweep json.RawMessage
	// Cells maps cell index → completed cell. Failures maps cell index →
	// error message; a non-terminal job's failed cells are re-executed on
	// resume, so Failures matters only for terminal replay.
	Cells    map[int]Cell
	Failures map[int]string
	// Resumed reports that the journal carries at least one resume marker —
	// some earlier process already picked this job back up once.
	Resumed bool
	// State is "" while the job is unfinished (crash mid-sweep — the resume
	// case), "done" or "failed" otherwise.
	State    string
	Error    string
	Finished time.Time
	// Skipped counts journal lines dropped as unparsable (torn tail after a
	// crash, corruption); the job is still usable, minus those records.
	Skipped int
}

// Journal manages one directory of per-job NDJSON files plus the persisted
// job-sequence high-water mark.
type Journal struct {
	dir string

	mu  sync.Mutex
	seq int
}

// seqFile persists the highest job sequence number ever allocated, so job
// IDs stay monotonic across restarts even after every journal file has
// been pruned — the service's "expired" 404 contract depends on IDs never
// being reused.
const seqFile = "SEQ"

// Open creates dir if needed and loads the sequence high-water mark from
// the SEQ file and any resident journal filenames (whichever is higher —
// a crash between file creation and SEQ persistence leaves the filename
// as the only witness).
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &Journal{dir: dir}
	if b, err := os.ReadFile(filepath.Join(dir, seqFile)); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && n > l.seq {
			l.seq = n
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if n, ok := seqOf(strings.TrimSuffix(e.Name(), ".ndjson")); ok && n > l.seq {
			l.seq = n
		}
	}
	return l, nil
}

// Dir returns the journal directory.
func (l *Journal) Dir() string { return l.dir }

// Seq returns the persisted sequence high-water mark: the highest numeric
// job-ID suffix this directory has ever seen.
func (l *Journal) Seq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// seqOf extracts the numeric suffix of a "job-%06d" ID.
func seqOf(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// validID guards file paths built from job IDs (same idea as the store's
// hex-key guard): only "job-<number>" names ever touch the filesystem.
func validID(id string) bool {
	_, ok := seqOf(id)
	return ok
}

// reserve persists max(seq, n) so the ID can never be handed out again,
// even after its journal file is pruned. Atomic temp+rename, like the
// store's writes; fsynced so a crash right after cannot roll it back.
// Caller holds l.mu.
func (l *Journal) reserve(n int) error {
	if n <= l.seq {
		return nil
	}
	l.seq = n
	f, err := os.CreateTemp(l.dir, "seq-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := fmt.Fprintf(f, "%d\n", n)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return os.Rename(tmp, filepath.Join(l.dir, seqFile))
}

// path returns the journal file of one job.
func (l *Journal) path(id string) string {
	return filepath.Join(l.dir, id+".ndjson")
}

// Begin opens a fresh journal for a newly admitted job and writes its
// submit record. The job's numeric suffix becomes the new sequence
// high-water mark. sweep is the original request, stored opaquely.
func (l *Journal) Begin(ctx context.Context, id string, created time.Time, total int, sweep json.RawMessage) (*Writer, error) {
	if !validID(id) {
		return nil, fmt.Errorf("journal: invalid job id %q", id)
	}
	l.mu.Lock()
	n, _ := seqOf(id)
	err := l.reserve(n)
	l.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("journal: reserve seq: %w", err)
	}
	w, err := l.writer(id, os.O_CREATE|os.O_EXCL)
	if err != nil {
		return nil, err
	}
	if err := w.append(ctx, record{
		Type: "submit", V: version, ID: id, Created: created, Total: total, Sweep: sweep,
	}); err != nil {
		w.Close()
		os.Remove(l.path(id))
		return nil, err
	}
	return w, nil
}

// Resume reopens an unfinished job's journal for appending and writes a
// resume marker, so later replays (and operators reading the file) can see
// the job survived a restart.
func (l *Journal) Resume(ctx context.Context, id string) (*Writer, error) {
	if !validID(id) {
		return nil, fmt.Errorf("journal: invalid job id %q", id)
	}
	w, err := l.writer(id, 0)
	if err != nil {
		return nil, err
	}
	if err := w.append(ctx, record{Type: "resume", ID: id}); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// writer opens one job's journal for appending with the extra open flags.
func (l *Journal) writer(id string, flag int) (*Writer, error) {
	log, err := openLog("journal.append", l.path(id), flag)
	if err != nil {
		return nil, err
	}
	return &Writer{log: log, id: id}, nil
}

// Remove unlinks a job's journal file (called when the job store prunes
// the job). The sequence mark survives, keeping the ID retired forever.
func (l *Journal) Remove(id string) error {
	if !validID(id) {
		return fmt.Errorf("journal: invalid job id %q", id)
	}
	err := os.Remove(l.path(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Replay scans every journal file in the directory and reconstructs its
// job, in sequence order (creation order). Files without a
// valid submit record — foreign files, total corruption — are skipped
// rather than fatal; within a file, unparsable lines (a torn tail from a
// crash mid-append) are counted in Job.Skipped and ignored.
func (l *Journal) Replay() ([]Job, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var jobs []Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ndjson") {
			continue
		}
		id := strings.TrimSuffix(e.Name(), ".ndjson")
		if !validID(id) {
			continue
		}
		j, ok := l.replayFile(filepath.Join(l.dir, e.Name()), id)
		if ok {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		na, _ := seqOf(jobs[a].ID)
		nb, _ := seqOf(jobs[b].ID)
		return na < nb
	})
	return jobs, nil
}

// replayFile reconstructs one job; ok is false when the file never yields
// a valid submit record.
func (l *Journal) replayFile(path, id string) (Job, bool) {
	j := Job{ID: id, Cells: map[int]Cell{}, Failures: map[int]string{}}
	submitted := false
	skipped, err := readLines(path, func(line []byte) bool {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return false
		}
		switch r.Type {
		case "submit":
			if r.ID != id || r.Total <= 0 {
				return false
			}
			j.Created = r.Created
			j.Total = r.Total
			j.Sweep = append(json.RawMessage(nil), r.Sweep...)
			submitted = true
		case "cell":
			if !submitted || r.Index < 0 || r.Index >= j.Total || len(r.Result) == 0 {
				return false
			}
			j.Cells[r.Index] = Cell{Cached: r.Cached, DurMS: r.DurMS, Result: append(json.RawMessage(nil), r.Result...)}
			delete(j.Failures, r.Index)
		case "cellfail":
			if !submitted || r.Index < 0 || r.Index >= j.Total {
				return false
			}
			j.Failures[r.Index] = r.Error
		case "resume":
			j.Resumed = true
		case "finish":
			if !submitted || (r.State != "done" && r.State != "failed") {
				return false
			}
			j.State = r.State
			j.Error = r.Error
			j.Finished = r.Finished
		default:
			return false
		}
		return true
	})
	if err != nil || !submitted {
		return Job{}, false
	}
	j.Skipped = skipped
	return j, true
}

// Writer appends records to one job's journal. Appends are serialized
// (sweep cells complete concurrently) and each one is fsynced before
// returning, so an acknowledged record survives a crash.
type Writer struct {
	log *appendLog
	id  string
}

// append durably writes one record. The faults site "journal.append"
// (key = job ID) injects append failures for robustness tests; callers
// treat journal errors as a durability downgrade, never as a reason to
// fail the job itself.
func (w *Writer) append(ctx context.Context, r record) error {
	return w.log.append(ctx, w.id, r)
}

// Cell records one completed cell: its index in the deterministic sweep
// order, whether it was served from a cache, how long its analysis took,
// and its full result payload. The duration is informational — resume uses
// it to seed the remaining-cells ETA — so a zero is always acceptable.
func (w *Writer) Cell(ctx context.Context, index int, cached bool, dur time.Duration, result json.RawMessage) error {
	return w.append(ctx, record{Type: "cell", Index: index, Cached: cached, DurMS: dur.Milliseconds(), Result: result})
}

// CellFailed records one cell whose analysis errored (the job continues;
// on resume the cell is retried).
func (w *Writer) CellFailed(ctx context.Context, index int, msg string) error {
	return w.append(ctx, record{Type: "cellfail", Index: index, Error: msg})
}

// Finish writes the terminal record and closes the file. Interrupted jobs
// (drain, timeout, crash) deliberately never get one — an unfinished
// journal is the resume signal.
func (w *Writer) Finish(ctx context.Context, state, errMsg string) error {
	err := w.append(ctx, record{Type: "finish", State: state, Error: errMsg, Finished: time.Now().UTC()})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the file handle without writing a terminal record.
func (w *Writer) Close() error { return w.log.close() }
