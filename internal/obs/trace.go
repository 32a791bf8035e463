package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the cross-process half of tracing: W3C-style traceparent
// contexts. A Recorder owns a 128-bit trace ID; every span gets a 64-bit
// span ID; Traceparent serializes the current span's identity into the
// "00-<32 hex>-<16 hex>-01" header a coordinator sends with a dispatched
// cell, and NewChildRecorder adopts it on the worker side so both
// processes' span trees share one trace ID. The coordinator stitches the
// worker's returned tree under its dispatch span with Span.AttachTree.
//
// IDs come from an injectable random source (SetIDSource) so tests and
// journal replay stay deterministic; the default source is seeded per
// process.

// idSource yields random 64-bit values for trace and span IDs. Stored as
// an atomic so SetIDSource is safe against concurrent ID generation.
var idSource atomic.Pointer[func() uint64]

// idMu serializes draws from the installed source: sources need not be
// safe for concurrent use (a seeded test counter is not).
var idMu sync.Mutex

// SetIDSource installs fn as the process-wide ID source (nil restores the
// default seeded source). Draws are serialized, so fn need not be
// goroutine-safe — a deterministic counter works.
func SetIDSource(fn func() uint64) {
	if fn == nil {
		idSource.Store(nil)
		return
	}
	idSource.Store(&fn)
}

// randID draws one nonzero 64-bit ID from the installed source.
func randID() uint64 {
	for {
		var v uint64
		if fn := idSource.Load(); fn != nil {
			idMu.Lock()
			v = (*fn)()
			idMu.Unlock()
		} else {
			v = rand.Uint64()
		}
		if v != 0 {
			return v
		}
	}
}

// newTraceID returns a fresh 128-bit trace ID as 32 lowercase hex digits.
func newTraceID() string {
	return fmt.Sprintf("%016x%016x", randID(), randID())
}

// newSpanID returns a fresh 64-bit span ID as 16 lowercase hex digits.
func newSpanID() string {
	return fmt.Sprintf("%016x", randID())
}

// Traceparent serializes the identity of the span carried by ctx in the
// W3C traceparent format, "00-<trace id>-<span id>-01". It returns ""
// when tracing is off or ctx carries no span — callers can set the header
// unconditionally and send nothing when dark.
func Traceparent(ctx context.Context) string {
	if activeRecorders.Load() == 0 {
		return ""
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	if s == nil || s.rec == nil {
		return ""
	}
	return "00-" + s.rec.traceID + "-" + s.id + "-01"
}

// ParseTraceparent splits a traceparent header into its trace and parent
// span IDs. Malformed headers — wrong field count, wrong widths, non-hex
// digits, all-zero IDs — report ok=false, and the caller falls back to a
// fresh root trace.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", "", false
	}
	if parts[0] != "00" || !isHex(parts[1]) || !isHex(parts[2]) {
		return "", "", false
	}
	if allZero(parts[1]) || allZero(parts[2]) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	return strings.Count(s, "0") == len(s)
}

// requestIDKey carries the request ID through contexts, so a process
// boundary (coordinator → worker HTTP dispatch) can forward it and both
// replicas' logs correlate under one grep.
type requestIDKey struct{}

// WithRequestID returns a context carrying id as the request identity.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Sampler makes head sampling decisions for the durable trace sink
// (journal.Sink): Sample reports true for roughly rate of calls, drawing
// from the process ID source so a seeded SetIDSource makes the decision
// sequence deterministic. A nil *Sampler never samples.
type Sampler struct {
	rate float64
}

// NewSampler returns a sampler firing at rate (clamped to [0, 1]).
func NewSampler(rate float64) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Sampler{rate: rate}
}

// Sample makes one head decision.
func (s *Sampler) Sample() bool {
	if s == nil || s.rate <= 0 {
		return false
	}
	if s.rate >= 1 {
		return true
	}
	return float64(randID()>>11)/(1<<53) < s.rate
}
