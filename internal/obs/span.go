// Package obs is the zero-dependency observability core of the pipeline:
// a context-carried span API for tracing where time goes inside an
// analysis, and a process-wide metric registry with a Prometheus text
// renderer (see metrics.go and prometheus.go).
//
// Tracing is designed to be free when nobody is looking. obs.Start costs a
// single atomic load when no Recorder exists in the process, and every
// method of the returned *Span is a no-op on nil — instrumented code never
// branches on "is tracing on". Only when a Recorder is live (a traced HTTP
// request, ucp-wcet -trace, ucp-bench -v) does Start consult the context,
// allocate a span, and read the clock. The CI bench guard runs the
// untraced fig3-sweep benchmark base against head, so a cost on the
// disabled path shows in its ops_per_s.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// activeRecorders counts live Recorders process-wide. Start bails after one
// atomic load when it is zero — the whole cost of tracing-disabled runs.
var activeRecorders atomic.Int64

type spanCtxKey struct{}

// Attr is one span attribute. Values should be small and JSON-encodable
// (ints, strings, bools): they end up in ?trace=1 responses verbatim.
type Attr struct {
	Key   string
	Value any
}

// maxChildren bounds the children recorded per span. The optimizer's
// validate-and-commit loop can run hundreds of re-analyses; an unbounded
// trace of such a run would dwarf the result it annotates. Beyond the
// bound, children are counted but dropped, and the count is surfaced as a
// "dropped_children" attribute on the parent.
const maxChildren = 128

// Span is one timed region of a traced execution. A nil *Span is valid and
// inert: every method is a no-op, so instrumentation sites need no guards.
type Span struct {
	rec      *Recorder
	name     string
	id       string // 16 hex digits, for traceparent propagation
	start    time.Time
	duration time.Duration
	attrs    []Attr
	children []*Span
	grafts   []*SpanTree // remote subtrees attached via AttachTree
	dropped  int
	ended    bool
}

// Start opens a child span under the span carried by ctx. When tracing is
// disabled (no live Recorder, or none installed in this context) it
// returns the context unchanged and a nil span, after one atomic load.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if activeRecorders.Load() == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	r := parent.rec
	s := &Span{rec: r, name: name, id: newSpanID(), start: time.Now()}
	r.mu.Lock()
	if len(parent.children) < maxChildren {
		parent.children = append(parent.children, s)
	} else {
		parent.dropped++
	}
	r.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Attr records one attribute on the span. No-op on nil.
func (s *Span) Attr(key string, value any) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.rec.mu.Unlock()
}

// End closes the span, fixing its duration. No-op on nil; a second End is
// ignored. When the owning Recorder has an OnEnd hook it is invoked (after
// the span is sealed, outside the recorder lock) with the span's name,
// duration, and a snapshot of its attributes — ucp-bench's -v progress
// lines hang off this.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if s.ended {
		r.mu.Unlock()
		return
	}
	s.ended = true
	s.duration = time.Since(s.start)
	var attrs []Attr
	if r.OnEnd != nil {
		attrs = append(attrs, s.attrs...)
	}
	hook := r.OnEnd
	d := s.duration
	name := s.name
	r.mu.Unlock()
	if hook != nil {
		hook(name, d, attrs)
	}
}

// Recorder collects one span tree. Create with NewRecorder, install into a
// context with Install, and Release when the traced execution is over (the
// process-wide tracing-enabled flag stays up while any Recorder is live).
type Recorder struct {
	// OnEnd, when non-nil, is called synchronously every time a span of
	// this recorder ends. Set it before the first Start; it must be safe
	// for concurrent calls (sweep cells end on worker goroutines).
	OnEnd func(name string, d time.Duration, attrs []Attr)

	traceID      string // 32 hex digits, shared across process boundaries
	parentSpanID string // remote parent adopted by NewChildRecorder, or ""

	mu       sync.Mutex
	root     *Span
	released bool
}

// NewRecorder creates a live Recorder whose root span is named name and
// starts now, under a fresh trace ID. While at least one Recorder is
// live, obs.Start pays the context lookup; Release the recorder when done.
func NewRecorder(name string) *Recorder {
	r := &Recorder{traceID: newTraceID()}
	r.root = &Span{rec: r, name: name, id: newSpanID(), start: time.Now()}
	activeRecorders.Add(1)
	return r
}

// NewChildRecorder creates a live Recorder that continues a remote trace:
// it adopts the trace ID of the given traceparent header and records the
// remote span as the root's parent, so the two processes' trees stitch
// into one trace. A malformed or empty header falls back to a fresh root
// trace (never an error — tracing must not fail a request).
func NewChildRecorder(name, traceparent string) *Recorder {
	r := NewRecorder(name)
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		r.traceID = tid
		r.parentSpanID = sid
	}
	return r
}

// TraceID returns the recorder's 32-hex-digit trace ID.
func (r *Recorder) TraceID() string { return r.traceID }

// Install returns a context carrying the recorder's root span; Start calls
// under it attach children to this recorder.
func (r *Recorder) Install(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, r.root)
}

// Root returns the recorder's root span (for attaching request-level
// attributes like a request ID). A nil recorder yields the nil span, whose
// methods are all inert — callers can attach attrs unconditionally.
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Release ends the root span and decrements the process-wide live-recorder
// count. Idempotent. The tree remains readable via Tree after Release.
func (r *Recorder) Release() {
	r.root.End()
	r.mu.Lock()
	done := r.released
	r.released = true
	r.mu.Unlock()
	if !done {
		activeRecorders.Add(-1)
	}
}

// AttachTree grafts an externally produced span tree (a worker replica's
// serialized trace, returned with its cell payload) under this span: the
// coordinator calls it on the dispatch span so the stitched tree spans
// both processes. The subtree is retained as-is and appears after the
// span's own children in snapshots. No-op on nil span or nil tree.
func (s *Span) AttachTree(t *SpanTree) {
	if s == nil || t == nil {
		return
	}
	s.rec.mu.Lock()
	s.grafts = append(s.grafts, t)
	s.rec.mu.Unlock()
}

// SpanTree is the exported, JSON-ready snapshot of a span.
type SpanTree struct {
	Name string `json:"name"`
	// TraceID is set on the root span only: the 32-hex-digit trace the
	// whole tree belongs to, shared across process boundaries.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID is this span's 16-hex-digit identity within the trace.
	SpanID string `json:"span_id,omitempty"`
	// ParentSpanID is set on the root of a child recorder's tree: the
	// remote span (in another process) this tree hangs under.
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// DurationUS is the span's wall time in microseconds; for a span still
	// open when the snapshot was taken, the time elapsed so far.
	DurationUS int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	// Dropped counts children beyond the per-span bound that were timed
	// but not retained.
	Dropped  int         `json:"dropped_children,omitempty"`
	Children []*SpanTree `json:"children,omitempty"`
}

// Tree snapshots the recorder's span tree. Safe to call at any time; spans
// still open report the time elapsed so far.
func (r *Recorder) Tree() *SpanTree {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := snapshot(r.root)
	t.TraceID = r.traceID
	t.ParentSpanID = r.parentSpanID
	return t
}

// snapshot converts a span subtree; caller holds the recorder lock.
func snapshot(s *Span) *SpanTree {
	d := s.duration
	if !s.ended {
		d = time.Since(s.start)
	}
	t := &SpanTree{
		Name:       s.name,
		SpanID:     s.id,
		DurationUS: d.Microseconds(),
		Dropped:    s.dropped,
	}
	if len(s.attrs) > 0 {
		t.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			t.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		t.Children = append(t.Children, snapshot(c))
	}
	t.Children = append(t.Children, s.grafts...)
	return t
}
