package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/dist"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
)

// The coordinator→worker bytes, recorded from the encoder that predates
// experiment.CellRequest/CellResponse (dist's own mirrored request and
// envelope types). A coordinator and a worker built on either side of that
// merge must keep reading each other.
const (
	wireEnvelope       = `{"cell":{"Program":"fdct","ConfigID":"k1","Cfg":{"Assoc":1,"BlockBytes":16,"CapacityBytes":256,"Policy":0},"L2Cfg":{"Assoc":4,"BlockBytes":32,"CapacityBytes":8192,"Policy":1},"Tech":1,"Inserted":5,"InsertedL2":2,"Validations":40,"Cond3Reverted":false,"TauOrig":15560,"TauOpt":15248,"MissWOrig":1204,"MissWOpt":1164,"L2MissWOrig":300,"L2MissWOpt":290,"ACETOrig":12345.5,"ACETOpt":12000.25,"MissRateOrig":0.125,"MissRateOpt":0.0625,"L2MissRateOrig":0.5,"L2MissRateOpt":0.25,"EnergyOrig":1000.5,"EnergyOpt":900.75,"DynOrig":800,"DynOpt":700,"StaticOrig":200.5,"StaticOpt":200.75,"FetchesOrig":5000,"FetchesOpt":5100,"HasHalf":true,"TauHalf":16000,"ACETHalf":13000,"EnergyHalf":1100,"HasQuarter":false,"TauQuarter":0,"ACETQuarter":0,"EnergyQuarter":0}}`
	wireTracedEnvelope = `{"cell":{"Program":"fdct","ConfigID":"k1","Cfg":{"Assoc":1,"BlockBytes":16,"CapacityBytes":256,"Policy":0},"L2Cfg":{"Assoc":4,"BlockBytes":32,"CapacityBytes":8192,"Policy":1},"Tech":1,"Inserted":5,"InsertedL2":2,"Validations":40,"Cond3Reverted":false,"TauOrig":15560,"TauOpt":15248,"MissWOrig":1204,"MissWOpt":1164,"L2MissWOrig":300,"L2MissWOpt":290,"ACETOrig":12345.5,"ACETOpt":12000.25,"MissRateOrig":0.125,"MissRateOpt":0.0625,"L2MissRateOrig":0.5,"L2MissRateOpt":0.25,"EnergyOrig":1000.5,"EnergyOpt":900.75,"DynOrig":800,"DynOpt":700,"StaticOrig":200.5,"StaticOpt":200.75,"FetchesOrig":5000,"FetchesOpt":5100,"HasHalf":true,"TauHalf":16000,"ACETHalf":13000,"EnergyHalf":1100,"HasQuarter":false,"TauQuarter":0,"ACETQuarter":0,"EnergyQuarter":0},"trace":{"name":"worker","trace_id":"0af7651916cd43dd8448eb211c80319c","span_id":"b7ad6b7169203331","parent_span_id":"00f067aa0ba902b7","duration_us":1200,"attrs":{"request_id":"req-1"},"children":[{"name":"worker.cell","span_id":"c7ad6b7169203331","duration_us":1100,"attrs":{"inserted":5}}]}}`
)

// wireCell and wireTrace are the values the envelope literals encode.
var (
	wireCell = experiment.Cell{
		Program: "fdct", ConfigID: "k1", Cfg: cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 256},
		L2Cfg: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: cache.FIFO}, Tech: energy.Tech32,
		Inserted: 5, InsertedL2: 2, Validations: 40, TauOrig: 15560, TauOpt: 15248, MissWOrig: 1204, MissWOpt: 1164,
		L2MissWOrig: 300, L2MissWOpt: 290, ACETOrig: 12345.5, ACETOpt: 12000.25, MissRateOrig: 0.125, MissRateOpt: 0.0625,
		L2MissRateOrig: 0.5, L2MissRateOpt: 0.25, EnergyOrig: 1000.5, EnergyOpt: 900.75, DynOrig: 800, DynOpt: 700,
		StaticOrig: 200.5, StaticOpt: 200.75, FetchesOrig: 5000, FetchesOpt: 5100,
		HasHalf: true, TauHalf: 16000, ACETHalf: 13000, EnergyHalf: 1100,
	}
	wireTrace = &obs.SpanTree{Name: "worker", TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331",
		ParentSpanID: "00f067aa0ba902b7", DurationUS: 1200, Attrs: map[string]any{"request_id": "req-1"},
		Children: []*obs.SpanTree{{Name: "worker.cell", SpanID: "c7ad6b7169203331", DurationUS: 1100, Attrs: map[string]any{"inserted": 5}}}}
)

// TestWorkerCellWireFormat pins the worker-cell wire format: for a
// single-level and a hierarchy cell, each with skip_reduced/explain set and
// unset, the coordinator's encoding reproduces the recorded request bytes,
// the worker's decoder reads them back to the same cell and options, and
// the coordinator decodes the recorded response envelope.
func TestWorkerCellWireFormat(t *testing.T) {
	for _, env := range []struct {
		v    experiment.CellResponse
		want string
	}{{experiment.CellResponse{Cell: wireCell}, wireEnvelope}, {experiment.CellResponse{Cell: wireCell, Trace: wireTrace}, wireTracedEnvelope}} {
		got, err := json.Marshal(env.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != env.want {
			t.Errorf("envelope encodes as\n%s\nwant\n%s", got, env.want)
		}
	}

	var body []byte
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ = io.ReadAll(r.Body)
		io.WriteString(w, wireTracedEnvelope)
	}))
	t.Cleanup(capture.Close)
	coord, err := dist.New(dist.Options{Workers: []string{capture.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, s := testServer(t, Config{EnableWorker: true})

	crc, _ := malardalen.ByName("crc")
	fdct, _ := malardalen.ByName("fdct")
	for _, c := range []struct {
		name string
		b    malardalen.Benchmark
		ci   int
		tech energy.Tech
		o    experiment.Options
		want string
	}{
		{"l1", crc, 13, energy.Tech45, experiment.Options{Runs: 3},
			`{"program":"crc","config":"k14","tech":"45nm","policy":"lru","runs":3}`},
		{"l1 switches", crc, 13, energy.Tech45, experiment.Options{Policy: cache.FIFO, Runs: 1, ValidationBudget: 20, SkipReduced: true, Explain: true},
			`{"program":"crc","config":"k14","tech":"45nm","policy":"fifo","runs":1,"validation_budget":20,"skip_reduced":true,"explain":true}`},
		{"l1+l2", fdct, 0, energy.Tech32, experiment.Options{Runs: 2, L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192}},
			`{"program":"fdct","config":"k1","tech":"32nm","policy":"lru","runs":2,"l2":{"assoc":4,"block_bytes":32,"capacity_bytes":8192,"policy":"lru"}}`},
		{"l1+l2 switches", fdct, 0, energy.Tech32, experiment.Options{Policy: cache.PLRU, ValidationBudget: 50, SkipReduced: true, Explain: true,
			L2: cache.Config{Assoc: 2, BlockBytes: 64, CapacityBytes: 16384, Policy: cache.FIFO}},
			`{"program":"fdct","config":"k1","tech":"32nm","policy":"plru","validation_budget":50,"l2":{"assoc":2,"block_bytes":64,"capacity_bytes":16384,"policy":"fifo"},"skip_reduced":true,"explain":true}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			cell, err := coord.Exec(context.Background(), c.b, c.ci, c.tech, c.o)
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != c.want {
				t.Errorf("coordinator sends\n%s\nwant\n%s", body, c.want)
			}
			if !reflect.DeepEqual(cell, wireCell) {
				t.Errorf("coordinator decodes the envelope to %+v", cell)
			}

			var req experiment.CellRequest
			rec := httptest.NewRecorder()
			if !s.decodeBody(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/cell", strings.NewReader(c.want)), &req) {
				t.Fatalf("worker refuses the request: %d %s", rec.Code, rec.Body)
			}
			uc, err := s.resolveCell(req.CellSpec)
			if err != nil {
				t.Fatal(err)
			}
			want := c.o
			if want.Runs == 0 {
				want.Runs = 3 // the worker's default, as for a local cell
			}
			if uc.bench.Name != c.b.Name || uc.cfgIdx != c.ci || uc.tech != c.tech ||
				!reflect.DeepEqual(uc.options(req.SkipReduced, req.Explain), want) {
				t.Errorf("worker reads %v with %+v, want %+v", uc, uc.options(req.SkipReduced, req.Explain), want)
			}
		})
	}
}

// TestCacheKeyPinned pins the content address of a resolved single-level
// and hierarchy request to the bytes persistent stores and job journals
// were written under; an empty l2 block is the single-level marker and
// shares the single-level key.
func TestCacheKeyPinned(t *testing.T) {
	_, s := testServer(t, Config{})
	for _, c := range []struct {
		req  AnalyzeRequest
		want string
	}{
		{AnalyzeRequest{Program: "crc", Config: "k14", Tech: "45nm"},
			"329f10eb564b6bca2b609494792ed14ed544dd4b60f8f5f73f650ea57a05ec35"},
		{AnalyzeRequest{Program: "crc", Config: "k14", Tech: "45nm", L2: &experiment.L2Request{}},
			"329f10eb564b6bca2b609494792ed14ed544dd4b60f8f5f73f650ea57a05ec35"},
		{AnalyzeRequest{Program: "fdct", Config: "k1", Tech: "32nm", Policy: "fifo", Runs: 2, ValidationBudget: 50,
			L2: &experiment.L2Request{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192, Policy: "plru"}},
			"c52c3a62440d2003218c2cb72eec24e52399465607b482fa00b35ed47db3821b"},
	} {
		uc, err := s.resolve(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.keyFor(uc); got != c.want {
			t.Errorf("key of %v = %s, want %s", uc, got, c.want)
		}
	}
}
