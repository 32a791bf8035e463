package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metric registry: typed families (counter, gauge,
// summary-rendered histogram) that packages register once — at init for
// process-wide series, at construction for per-instance ones — and that
// WritePrometheus renders in one pass. Registration is get-or-create, so
// two callers asking for the same family share it; asking for the same
// name with a different shape (type or label key) panics at registration
// time rather than producing a corrupt exposition.
//
// Process-wide series (the wcet analysis-mode counters, the pool panic
// counter) live in the Global registry. Per-instance series (one HTTP
// server's request counters) live in a private NewRegistry so tests can
// stand up several servers in one process without cross-talk; the server's
// /metrics handler renders its own registry and Global together.

// Registry holds metric families in registration order.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	names  []string
}

// family is one exposition family: a name, HELP/TYPE metadata, and either
// registered instruments or a pull callback evaluated at render time.
type family struct {
	name, help, typ string
	labelKey        string // label key for vec families ("" = unlabeled)

	mu       sync.Mutex
	counter  *Counter
	vec      map[string]*Counter // CounterVec children by label value
	hist     *Histogram
	histVec  map[string]*Histogram // HistogramVec children by label value
	pull     func() []Sample       // gauge/counter funcs, evaluated at render
	pullable bool
}

// Sample is one pulled value of a callback-backed family; Label is the
// value of the family's label key ("" for unlabeled families).
type Sample struct {
	Label string
	Value float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// global is the process-wide registry package-level helpers register into.
var global = NewRegistry()

// Global returns the process-wide registry.
func Global() *Registry { return global }

// register returns the family for name, creating it on first use and
// panicking when a previous registration disagrees on type or label key —
// a programming error best caught at init.
func (r *Registry) register(name, help, typ, labelKey string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || f.labelKey != labelKey {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q, was %s/%q",
				name, typ, labelKey, f.typ, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelKey: labelKey}
	r.byName[name] = f
	r.names = append(r.names, name)
	return f
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or finds) an unlabeled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct {
	f *family
}

// With returns the child counter for one label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.vec[value]
	if !ok {
		c = &Counter{}
		v.f.vec[value] = c
	}
	return c
}

// CounterVec registers (or finds) a counter family with one label key.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	f := r.register(name, help, "counter", labelKey)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.vec == nil {
		f.vec = map[string]*Counter{}
	}
	return &CounterVec{f: f}
}

// CounterFunc registers a counter family whose value is pulled from fn at
// render time (for counters owned by another component, like a cache's
// hit count). Re-registering rebinds the callback — the most recent owner
// (e.g. the latest Server sharing a registry) wins.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.register(name, help, "counter", "")
	f.mu.Lock()
	f.pullable = true
	f.pull = func() []Sample { return []Sample{{Value: float64(fn())}} }
	f.mu.Unlock()
}

// GaugeFunc registers a gauge family pulled from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", "")
	f.mu.Lock()
	f.pullable = true
	f.pull = func() []Sample { return []Sample{{Value: fn()}} }
	f.mu.Unlock()
}

// GaugeVecFunc registers a labeled gauge family pulled from fn at render
// time; fn returns one Sample per label value.
func (r *Registry) GaugeVecFunc(name, help, labelKey string, fn func() []Sample) {
	f := r.register(name, help, "gauge", labelKey)
	f.mu.Lock()
	f.pullable = true
	f.pull = fn
	f.mu.Unlock()
}

// histWindow is how many recent observations the quantile estimator keeps.
// A fixed ring keeps rendering O(window) regardless of uptime; with 1024
// samples a p99 estimate rests on ~10 observations — coarse but honest for
// an operational dashboard.
const histWindow = 1024

// Histogram records float64 observations into fixed cumulative buckets
// plus a bounded ring of recent values for quantile estimation. It renders
// as a Prometheus summary — quantile series, _sum, and _count — so the
// series names predating the registry stay stable; the bucket counts are
// available programmatically via Snapshot.
//
// Observe is designed for hot paths (per-phase and per-dispatch latency):
// the bucket counters and sum are atomics, and only the quantile ring takes
// a mutex — one that Snapshot shares, so a concurrent Observe/Snapshot pair
// can never tear the window (the ring's position and fill counters move
// only under ringMu). There is no separate count: Snapshot derives it from
// the buckets it loaded, so count and buckets always agree.
type Histogram struct {
	bounds  []float64      // bucket upper bounds, ascending; immutable
	buckets []atomic.Int64 // buckets[i] counts observations <= bounds[i]; last = +Inf
	sumBits atomic.Uint64  // float64 sum, CAS-updated via math.Float64bits

	quantiles []float64 // immutable after registration

	ringMu sync.Mutex
	ring   [histWindow]float64
	pos, n int
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := len(h.buckets) - 1 // +Inf
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.ringMu.Lock()
	h.ring[h.pos] = v
	h.pos = (h.pos + 1) % histWindow
	if h.n < histWindow {
		h.n++
	}
	h.ringMu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds    []float64 // bucket upper bounds; the final bucket is +Inf
	Buckets   []int64
	Count     int64
	Sum       float64
	Quantiles []float64 // requested quantiles, in registration order
	Values    []float64 // estimated value per quantile (nearest rank)
}

// Snapshot returns the histogram's current state, including the
// nearest-rank quantile estimates over the recent-observation window.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:    append([]float64(nil), h.bounds...),
		Buckets:   make([]int64, len(h.buckets)),
		Quantiles: append([]float64(nil), h.quantiles...),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	h.ringMu.Lock()
	window := make([]float64, h.n)
	copy(window, h.ring[:h.n])
	h.ringMu.Unlock()

	s.Values = make([]float64, len(s.Quantiles))
	if len(window) == 0 {
		return s
	}
	sort.Float64s(window)
	for i, q := range s.Quantiles {
		s.Values[i] = window[nearestRank(q, len(window))]
	}
	return s
}

// nearestRank maps quantile q over n sorted samples to an index, rounding
// half-up. Flooring int(q*(n-1)) — the scheme this replaces — biases high
// quantiles low on small windows: over 10 samples it reported the 9th for
// p99 when the 10th is nearer (0.99·9 = 8.91 rounds to 9, not 8).
func nearestRank(q float64, n int) int {
	rank := int(math.Floor(q*float64(n-1) + 0.5))
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return rank
}

// DefBuckets are the default latency buckets, in seconds: sub-millisecond
// cache hits up through multi-minute sweeps.
var DefBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120}

// newHistogram builds one histogram instrument, applying the registry
// defaults (DefBuckets; 0.5 and 0.99 quantiles).
func newHistogram(buckets, quantiles []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	if quantiles == nil {
		quantiles = []float64{0.5, 0.99}
	}
	return &Histogram{
		bounds:    append([]float64(nil), buckets...),
		buckets:   make([]atomic.Int64, len(buckets)+1),
		quantiles: append([]float64(nil), quantiles...),
	}
}

// Histogram registers (or finds) a histogram family. buckets are the
// cumulative upper bounds (nil = DefBuckets); quantiles are the summary
// quantiles rendered to the exposition (nil = 0.5 and 0.99).
func (r *Registry) Histogram(name, help string, buckets, quantiles []float64) *Histogram {
	f := r.register(name, help, "summary", "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hist == nil {
		f.hist = newHistogram(buckets, quantiles)
	}
	return f.hist
}

// HistogramVec is a histogram family with one label dimension — one
// summary (quantiles, _sum, _count) per label value, e.g. per-phase or
// per-worker latency.
type HistogramVec struct {
	f         *family
	buckets   []float64
	quantiles []float64
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.histVec[value]
	if !ok {
		h = newHistogram(v.buckets, v.quantiles)
		v.f.histVec[value] = h
	}
	return h
}

// HistogramVec registers (or finds) a labeled histogram family. buckets
// and quantiles follow the Histogram defaults and apply to every child.
func (r *Registry) HistogramVec(name, help, labelKey string, buckets, quantiles []float64) *HistogramVec {
	f := r.register(name, help, "summary", labelKey)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.histVec == nil {
		f.histVec = map[string]*Histogram{}
	}
	return &HistogramVec{f: f, buckets: buckets, quantiles: quantiles}
}

// Package-level helpers registering into the Global registry — the form
// packages use at init for process-wide series.

// NewCounter registers an unlabeled counter in the Global registry.
func NewCounter(name, help string) *Counter { return global.Counter(name, help) }

// NewCounterVec registers a labeled counter in the Global registry.
func NewCounterVec(name, help, labelKey string) *CounterVec {
	return global.CounterVec(name, help, labelKey)
}

// NewGaugeFunc registers a pulled gauge in the Global registry.
func NewGaugeFunc(name, help string, fn func() float64) { global.GaugeFunc(name, help, fn) }

// NewGaugeVecFunc registers a labeled pulled gauge in the Global registry.
// Re-registering rebinds the pull to fn, so the latest owner of a shared
// name (e.g. the newest Coordinator) is the one rendered.
func NewGaugeVecFunc(name, help, labelKey string, fn func() []Sample) {
	global.GaugeVecFunc(name, help, labelKey, fn)
}

// NewHistogram registers a histogram in the Global registry.
func NewHistogram(name, help string, buckets, quantiles []float64) *Histogram {
	return global.Histogram(name, help, buckets, quantiles)
}

// NewHistogramVec registers a labeled histogram in the Global registry.
func NewHistogramVec(name, help, labelKey string, buckets, quantiles []float64) *HistogramVec {
	return global.HistogramVec(name, help, labelKey, buckets, quantiles)
}
