package obs

import (
	"context"
	"strings"
	"testing"
)

// seededIDs installs a deterministic ID source for the test and restores
// the default on cleanup.
func seededIDs(t *testing.T, start uint64) {
	t.Helper()
	n := start
	SetIDSource(func() uint64 { n++; return n })
	t.Cleanup(func() { SetIDSource(nil) })
}

func TestTraceparentRoundTrip(t *testing.T) {
	seededIDs(t, 0x100)
	r := NewRecorder("root")
	defer r.Release()
	ctx := r.Install(context.Background())
	_, s := Start(ctx, "dispatch")
	ctx2, _ := Start(ctx, "dispatch")
	_ = s

	h := Traceparent(ctx2)
	if h == "" {
		t.Fatal("Traceparent under a live recorder must not be empty")
	}
	parts := strings.Split(h, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[3] != "01" {
		t.Fatalf("traceparent %q not in 00-…-…-01 form", h)
	}
	tid, sid, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent rejected its own output %q", h)
	}
	if tid != r.TraceID() {
		t.Fatalf("trace id %s, want recorder's %s", tid, r.TraceID())
	}
	if len(sid) != 16 {
		t.Fatalf("span id %q not 16 hex digits", sid)
	}
}

func TestTraceparentDisabled(t *testing.T) {
	if h := Traceparent(context.Background()); h != "" {
		t.Fatalf("Traceparent without a recorder = %q, want empty", h)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong version
		"00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01", // non-hex
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",    // missing flags
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
}

func TestSeededIDSourceIsDeterministic(t *testing.T) {
	seededIDs(t, 7)
	a := NewRecorder("a")
	a.Release()
	seededIDs(t, 7)
	b := NewRecorder("b")
	b.Release()
	if a.TraceID() != b.TraceID() {
		t.Fatalf("same seed produced different trace IDs: %s vs %s", a.TraceID(), b.TraceID())
	}
}

func TestChildRecorderAdoptsRemoteParent(t *testing.T) {
	seededIDs(t, 0x2000)
	parent := NewRecorder("coordinator")
	defer parent.Release()
	ctx := parent.Install(context.Background())
	ctx, dispatch := Start(ctx, "dist.cell")

	h := Traceparent(ctx)
	child := NewChildRecorder("worker.cell", h)
	wctx := child.Install(context.Background())
	_, ws := Start(wctx, "experiment.cell")
	ws.End()
	child.Release()

	wt := child.Tree()
	if wt.TraceID != parent.TraceID() {
		t.Fatalf("child trace id %s, want parent's %s", wt.TraceID, parent.TraceID())
	}
	_, sid, _ := ParseTraceparent(h)
	if wt.ParentSpanID != sid {
		t.Fatalf("child parent span %s, want dispatch span %s", wt.ParentSpanID, sid)
	}

	// Stitch: the coordinator grafts the worker tree under its dispatch
	// span; the combined tree carries spans of both "processes".
	dispatch.AttachTree(wt)
	dispatch.End()
	tree := parent.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "dist.cell" {
		t.Fatalf("tree = %+v", tree)
	}
	grafted := tree.Children[0].Children
	if len(grafted) != 1 || grafted[0].Name != "worker.cell" {
		t.Fatalf("worker tree not grafted under dispatch: %+v", tree.Children[0])
	}
	if grafted[0].Children[0].Name != "experiment.cell" {
		t.Fatalf("worker subtree lost its spans: %+v", grafted[0])
	}
	if grafted[0].TraceID != tree.TraceID {
		t.Fatalf("stitched tree spans two trace IDs: %s vs %s", grafted[0].TraceID, tree.TraceID)
	}
}

func TestChildRecorderFallsBackOnBadHeader(t *testing.T) {
	r := NewChildRecorder("worker", "garbage")
	defer r.Release()
	if len(r.TraceID()) != 32 {
		t.Fatalf("fallback trace id %q not 32 hex digits", r.TraceID())
	}
	if r.Tree().ParentSpanID != "" {
		t.Fatal("fallback must not invent a remote parent")
	}
}

// FuzzParseTraceparent: any header either parses into IDs that
// re-serialize to a header parsing back to the same IDs, or is rejected —
// never a panic, never a half-valid identity.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	f.Add(" 00-0123456789abcdef0123456789abcdef-0123456789abcdef-00 ")
	f.Add("00-00000000000000000000000000000000-0123456789abcdef-01")
	f.Add("00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01")
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef")
	f.Add("00-abc-def-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			if tid != "" || sid != "" {
				t.Fatalf("rejected %q but returned ids %q/%q", h, tid, sid)
			}
			return
		}
		if len(tid) != 32 || len(sid) != 16 || !isHex(tid) || !isHex(sid) || allZero(tid) || allZero(sid) {
			t.Fatalf("accepted %q with malformed ids %q/%q", h, tid, sid)
		}
		tid2, sid2, ok2 := ParseTraceparent("00-" + tid + "-" + sid + "-01")
		if !ok2 || tid2 != tid || sid2 != sid {
			t.Fatalf("ids %q/%q from %q do not round-trip", tid, sid, h)
		}
	})
}

func TestSamplerDeterministicUnderSeededSource(t *testing.T) {
	decisions := func() []bool {
		seeded := uint64(42)
		SetIDSource(func() uint64 { seeded++; return seeded * 0x9E3779B97F4A7C15 })
		defer SetIDSource(nil)
		sm := NewSampler(0.3)
		out := make([]bool, 64)
		for i := range out {
			out[i] = sm.Sample()
		}
		return out
	}
	a, b := decisions(), decisions()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.3 fired %d/%d times — not sampling", fired, len(a))
	}
}

func TestSamplerEdges(t *testing.T) {
	if (*Sampler)(nil).Sample() {
		t.Fatal("nil sampler must never fire")
	}
	if NewSampler(0).Sample() {
		t.Fatal("rate 0 must never fire")
	}
	always := NewSampler(1)
	for i := 0; i < 32; i++ {
		if !always.Sample() {
			t.Fatal("rate 1 must always fire")
		}
	}
}
