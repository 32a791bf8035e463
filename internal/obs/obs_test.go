package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartDisabledIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatal("Start without a recorder must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without a recorder must return the context unchanged")
	}
	// The nil span is fully inert.
	sp.Attr("k", 1)
	sp.End()
}

func TestSpanTree(t *testing.T) {
	r := NewRecorder("request")
	defer r.Release()
	ctx := r.Install(context.Background())

	ctx1, a := Start(ctx, "outer")
	if a == nil {
		t.Fatal("Start under a live recorder must return a span")
	}
	a.Attr("n", 42)
	_, b := Start(ctx1, "inner")
	b.Attr("s", "v")
	b.End()
	a.End()

	// A sibling of outer, started from the root context.
	_, c := Start(ctx, "sibling")
	c.End()

	tree := r.Tree()
	if tree.Name != "request" || len(tree.Children) != 2 {
		t.Fatalf("tree = %+v", tree)
	}
	outer := tree.Children[0]
	if outer.Name != "outer" || outer.Attrs["n"] != 42 {
		t.Fatalf("outer = %+v", outer)
	}
	if len(outer.Children) != 1 || outer.Children[0].Name != "inner" {
		t.Fatalf("inner missing: %+v", outer)
	}
	if tree.Children[1].Name != "sibling" {
		t.Fatalf("sibling missing: %+v", tree)
	}
}

func TestSpanChildCap(t *testing.T) {
	r := NewRecorder("root")
	defer r.Release()
	ctx := r.Install(context.Background())
	for i := 0; i < maxChildren+7; i++ {
		_, s := Start(ctx, "c")
		s.End()
	}
	tree := r.Tree()
	if len(tree.Children) != maxChildren {
		t.Fatalf("children = %d, want %d", len(tree.Children), maxChildren)
	}
	if tree.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", tree.Dropped)
	}
}

func TestRecorderOnEnd(t *testing.T) {
	r := NewRecorder("root")
	defer r.Release()
	var gotName string
	var gotAttrs []Attr
	r.OnEnd = func(name string, d time.Duration, attrs []Attr) {
		if name == "cell" {
			gotName, gotAttrs = name, attrs
		}
	}
	ctx := r.Install(context.Background())
	_, s := Start(ctx, "cell")
	s.Attr("program", "crc")
	s.End()
	if gotName != "cell" || len(gotAttrs) != 1 || gotAttrs[0].Value != "crc" {
		t.Fatalf("OnEnd got %q %+v", gotName, gotAttrs)
	}
}

func TestNearestRankRoundsHalfUp(t *testing.T) {
	// Over 10 samples, p99 must pick the maximum (index 9); the old
	// flooring scheme picked index 8.
	if got := nearestRank(0.99, 10); got != 9 {
		t.Fatalf("nearestRank(0.99, 10) = %d, want 9", got)
	}
	if got := nearestRank(0.5, 10); got != 5 {
		t.Fatalf("nearestRank(0.5, 10) = %d, want 5", got)
	}
	if got := nearestRank(0, 10); got != 0 {
		t.Fatalf("nearestRank(0, 10) = %d, want 0", got)
	}
	if got := nearestRank(1, 1); got != 0 {
		t.Fatalf("nearestRank(1, 1) = %d, want 0", got)
	}
}

func TestHistogramQuantilesAndBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "help.")
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 55 {
		t.Fatalf("count/sum = %d/%g", s.Count, s.Sum)
	}
	if s.Values[1] != 10 {
		t.Fatalf("p99 over 1..10 = %g, want 10 (round half-up)", s.Values[1])
	}
}

// TestHistogramConcurrentObserveSnapshot hammers one histogram from
// writer and reader goroutines; -race verifies the quantile window never
// tears, and every snapshot's count and sum are from one instant: each
// observation is 1, so the sum must equal the count.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammer_seconds", "h")
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := h.Snapshot(); s.Sum != float64(s.Count) {
					t.Errorf("sum %g != count %d", s.Sum, s.Count)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(1)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
}

func TestHistogramVecRendersPerLabel(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("ucp_cell_seconds", "Per-worker cell latency.", "worker")
	v.With("w1").Observe(0.25)
	v.With("w1").Observe(0.75)
	v.With("w2").Observe(2)
	if v.With("w1") != v.With("w1") {
		t.Fatal("With must return the same child for the same label")
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ucp_cell_seconds Per-worker cell latency.
# TYPE ucp_cell_seconds summary
ucp_cell_seconds{worker="w1",quantile="0.5"} 0.750000
ucp_cell_seconds{worker="w1",quantile="0.99"} 0.750000
ucp_cell_seconds_sum{worker="w1"} 1.000000
ucp_cell_seconds_count{worker="w1"} 2
ucp_cell_seconds{worker="w2",quantile="0.5"} 2.000000
ucp_cell_seconds{worker="w2",quantile="0.99"} 2.000000
ucp_cell_seconds_sum{worker="w2"} 2.000000
ucp_cell_seconds_count{worker="w2"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := Lint(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("labeled histogram exposition fails lint: %v", err)
	}
}

func TestGetOrCreateSharesAndPanicsOnMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h")
	b := r.Counter("c_total", "h")
	if a != b {
		t.Fatal("re-registering the same counter must return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering c_total as a vec must panic")
		}
	}()
	r.CounterVec("c_total", "h", "k")
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ucp_b_total", "Plain counter.")
	c.Add(3)
	v := r.CounterVec("ucp_a_total", "Labeled counter.", "route")
	v.With(`GET /x`).Add(2)
	v.With("with\"quote").Inc()
	r.GaugeFunc("ucp_g", "A gauge.", func() float64 { return 1.5 })
	r.GaugeVecFunc("ucp_jobs", "Jobs by state.", "state", func() []Sample {
		return []Sample{{Label: "done", Value: 2}, {Label: "queued", Value: 0}}
	})
	h := r.Histogram("ucp_lat_seconds", "Latency.")
	h.Observe(0.25)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ucp_a_total Labeled counter.
# TYPE ucp_a_total counter
ucp_a_total{route="GET /x"} 2
ucp_a_total{route="with\"quote"} 1
# HELP ucp_b_total Plain counter.
# TYPE ucp_b_total counter
ucp_b_total 3
# HELP ucp_g A gauge.
# TYPE ucp_g gauge
ucp_g 1.5
# HELP ucp_jobs Jobs by state.
# TYPE ucp_jobs gauge
ucp_jobs{state="done"} 2
ucp_jobs{state="queued"} 0
# HELP ucp_lat_seconds Latency.
# TYPE ucp_lat_seconds summary
ucp_lat_seconds{quantile="0.5"} 0.250000
ucp_lat_seconds{quantile="0.99"} 0.250000
ucp_lat_seconds_sum 0.250000
ucp_lat_seconds_count 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := Lint(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("golden exposition fails lint: %v", err)
	}
}

func TestWritePrometheusRejectsCrossRegistryDuplicates(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("dup_total", "h")
	r2.Counter("dup_total", "h")
	var sb strings.Builder
	if err := WritePrometheus(&sb, r1, r2); err == nil {
		t.Fatal("duplicate family across registries must be an error")
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"sample before HELP/TYPE", "x_total 1\n"},
		{"TYPE without HELP", "# TYPE x_total counter\nx_total 1\n"},
		{"duplicate family", "# HELP x h\n# TYPE x counter\nx 1\n# HELP y h\n# TYPE y counter\ny 1\n# HELP x h\n# TYPE x counter\nx 2\n"},
		{"unescaped quote", "# HELP x h\n# TYPE x counter\nx{l=\"a\"b\"} 1\n"},
		{"unquoted label", "# HELP x h\n# TYPE x counter\nx{l=abc} 1\n"},
		{"non-numeric value", "# HELP x h\n# TYPE x counter\nx nope\n"},
		{"foreign sample in family", "# HELP x h\n# TYPE x counter\ny_total 1\n"},
		{"unknown type", "# HELP x h\n# TYPE x widget\nx 1\n"},
	}
	for _, tc := range cases {
		if err := Lint(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: lint accepted %q", tc.name, tc.in)
		}
	}
	ok := "# HELP x h\n# TYPE x summary\nx{quantile=\"0.5\"} 1\nx_sum 2\nx_count 3\n"
	if err := Lint(strings.NewReader(ok)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}
