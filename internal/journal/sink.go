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
	"time"

	"ucp/internal/obs"
)

// This file is the durable half of tracing: an append-only NDJSON sink
// that persists sampled span trees and operational events per process, so
// a trace survives the request — and the crash — instead of living only
// in a ?trace=1 response body.
//
// It stands on the same core as the job journal (log.go). Reads skip torn
// and unparsable lines because a trace log is an operational aid, not a
// system of record. Growth is bounded by size-based rotation: the active
// file rolls over to a numbered segment and the oldest segments are
// pruned.

// DefaultSinkMaxBytes bounds one sink segment before rotation.
const DefaultSinkMaxBytes = 8 << 20

// sinkKeepSegments is how many rotated segments survive pruning; with the
// active file, the sink holds at most (sinkKeepSegments+1) × maxBytes.
const sinkKeepSegments = 4

// sinkActive is the segment currently appended to.
const sinkActive = "trace.ndjson"

// sinkSegment names rotated segment n.
func sinkSegment(n int) string { return fmt.Sprintf("trace-%06d.ndjson", n) }

// SinkRecord is one NDJSON line of the trace sink: either a completed
// span tree ("trace") or a point event ("event").
type SinkRecord struct {
	Kind string    `json:"kind"`
	Time time.Time `json:"time"`
	// RequestID correlates the record with the request logs of every
	// replica that touched the request.
	RequestID string         `json:"request_id,omitempty"`
	TraceID   string         `json:"trace_id,omitempty"`
	Event     string         `json:"event,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Trace     *obs.SpanTree  `json:"trace,omitempty"`
}

// Sink is one process's durable trace/event log. Safe for concurrent use;
// a nil *Sink is valid and inert, so callers need no "is tracing durable"
// guards.
type Sink struct {
	dir string
	log *appendLog
}

// OpenSink creates dir if needed and opens the active segment for
// appending. maxBytes bounds one segment (<= 0 uses DefaultSinkMaxBytes).
func OpenSink(dir string, maxBytes int64) (*Sink, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSinkMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace sink: %w", err)
	}
	log, err := openLog("trace.append", filepath.Join(dir, sinkActive), os.O_CREATE)
	if err != nil {
		return nil, err
	}
	log.maxBytes, log.seal = maxBytes, func() error { return sealSegment(dir) }
	return &Sink{dir: dir, log: log}, nil
}

// Dir returns the sink directory ("" on a nil sink).
func (s *Sink) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// WriteTrace durably appends one completed span tree. The faults site
// "trace.append" (key = trace ID) injects append failures; callers treat
// sink errors as an observability downgrade, never a request failure.
func (s *Sink) WriteTrace(ctx context.Context, requestID string, t *obs.SpanTree) error {
	if s == nil || t == nil {
		return nil
	}
	return s.log.append(ctx, t.TraceID, SinkRecord{
		Kind: "trace", Time: time.Now().UTC(),
		RequestID: requestID, TraceID: t.TraceID, Trace: t,
	})
}

// WriteEvent durably appends one point event with free-form attributes.
func (s *Sink) WriteEvent(ctx context.Context, event, requestID, traceID string, attrs map[string]any) error {
	if s == nil {
		return nil
	}
	return s.log.append(ctx, traceID, SinkRecord{
		Kind: "event", Time: time.Now().UTC(),
		RequestID: requestID, TraceID: traceID, Event: event, Attrs: attrs,
	})
}

// sealSegment renames the full active segment in dir to the segment number
// after the newest one and prunes the oldest segments beyond the keep
// bound. It is the sink log's rotation hook.
func sealSegment(dir string) error {
	segs := sinkSegments(dir)
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	if err := os.Rename(filepath.Join(dir, sinkActive), filepath.Join(dir, sinkSegment(next))); err != nil {
		return err
	}
	segs = append(segs, next)
	for len(segs) > sinkKeepSegments {
		// Best effort: a segment that survives is pruned at the next rotation.
		os.Remove(filepath.Join(dir, sinkSegment(segs[0])))
		segs = segs[1:]
	}
	return nil
}

// Close fsyncs and closes the active segment. Idempotent; nil-safe.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	return s.log.close()
}

// sinkSegments lists the rotated segment numbers in dir, ascending.
func sinkSegments(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "trace-") || !strings.HasSuffix(name, ".ndjson") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "trace-"), ".ndjson"))
		if err == nil && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs
}

// ReadSink replays every record in a sink directory, rotated segments
// first (oldest to newest) and the active segment last. Unparsable lines
// and records of an unknown kind are counted in skipped and ignored, as
// in the job journal's replay.
func ReadSink(dir string) (records []SinkRecord, skipped int, err error) {
	var paths []string
	for _, n := range sinkSegments(dir) {
		paths = append(paths, filepath.Join(dir, sinkSegment(n)))
	}
	paths = append(paths, filepath.Join(dir, sinkActive))
	for _, p := range paths {
		n, err := readLines(p, func(line []byte) bool {
			var r SinkRecord
			if json.Unmarshal(line, &r) != nil || (r.Kind != "trace" && r.Kind != "event") {
				return false
			}
			records = append(records, r)
			return true
		})
		if err != nil && !os.IsNotExist(err) {
			return records, skipped, fmt.Errorf("trace sink: %w", err)
		}
		skipped += n
	}
	return records, skipped, nil
}
