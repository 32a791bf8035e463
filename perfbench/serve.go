package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"ucp/internal/cache"
	"ucp/internal/experiment"
	"ucp/internal/isa"
	"ucp/internal/service"
)

// server is an in-process analysis service on a loopback listener, with the
// one keep-alive client that drives it.
type server struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when Serve has returned
}

// startServer brings up a service with default settings and waits until it
// answers /healthz.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s := &server{
		svc:    svc,
		hs:     &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.svc.Close()
	s.client.CloseIdleConnections()
}

// analyze posts one /v1/analyze request at service defaults and returns the
// raw response body and its cache provenance.
func (s *server) analyze(c cell) (body []byte, cached bool, err error) {
	req, err := json.Marshal(service.AnalyzeRequest{Program: c.Program, Config: cache.ConfigID(c.Config), Tech: "45nm"})
	if err != nil {
		return nil, false, err
	}
	resp, err := s.client.Post(s.url+"/v1/analyze", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("%s: status %d: %s", c, resp.StatusCode, bytes.TrimSpace(body))
	}
	var r struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, false, fmt.Errorf("%s: %w", c, err)
	}
	return body, r.Cached, nil
}

// serveOptions are the experiment options /v1/analyze runs a cell with at
// service defaults: three simulated runs, the optimizer's default budget,
// no reduced-capacity runs.
var serveOptions = experiment.Options{Runs: 3, SkipReduced: true}

// The reference kernel runs after every serveTick-th serve-mix request and
// every probeTick-th request of the sweeps' hit probe, whose requests are
// all fast hits but one.
const serveTick, probeTick = 40, 200

// servePass sends reqs through a fresh server, one at a time, and checks
// every response, running the reference kernel after every tick-th
// request. With a ledger it also times the fingerprint the service takes of
// each program and recomposes the cell behind every cold request, so the
// service's own overhead shows as miss latency less the cell.
func (b *bench) servePass(ctx context.Context, reqs []request, tick int, l *ledger) (passResult, error) {
	out := passResult{gains: map[cell]gain{}}
	srv, err := startServer()
	if err != nil {
		return out, err
	}
	defer srv.stop()
	var paused time.Duration
	start := time.Now()
	for i, r := range reqs {
		if i%tick == tick-1 {
			paused += b.speed.tick()
		}
		b.attempted++
		var body []byte
		var cached bool
		call := func() (err error) { body, cached, err = srv.analyze(r.Cell); return err }
		t0 := time.Now()
		if l != nil {
			name := "service.miss"
			if r.Repeat {
				name = "service.hit"
			}
			err = l.span(name, call)
		} else {
			err = call()
		}
		d := time.Since(t0)
		if err != nil {
			b.fail("%s: %v", r.Cell, err)
			continue
		}
		if r.Repeat {
			out.hitMS = append(out.hitMS, ms(d))
		} else {
			out.missMS = append(out.missMS, ms(d))
		}
		out.opMS = append(out.opMS, ms(d))
		if bad := b.checkResponse(r, body, cached, out.gains); bad != "" {
			b.fail("%s: %s", r.Cell, bad)
		}
		if l != nil {
			b.traceRequest(ctx, l, r, d, cached)
		}
	}
	out.wall = time.Since(start) - paused
	return out, nil
}

// checkResponse checks one response: a cold one must satisfy Theorem 1 and
// the Condition 3 guard and is recorded; a repeat must come from the cache
// and be byte-equal to that cell's cold response. A cold response that
// differs from the same cell's cold response in an earlier pass is a
// failure too: the pipeline is deterministic.
func (b *bench) checkResponse(r request, body []byte, cached bool, gains map[cell]gain) string {
	if r.Repeat {
		want := bytes.Replace(b.coldBodies[r.Cell], []byte(`"cached": false`), []byte(`"cached": true`), 1)
		switch {
		case !cached:
			return "repeat not served from the result cache"
		case !bytes.Equal(body, want):
			return "cache hit differs from the cold response"
		}
		return ""
	}
	if cached {
		return "cold request served from the cache"
	}
	if prev, ok := b.coldBodies[r.Cell]; ok && !bytes.Equal(prev, body) {
		return "cold response differs between passes"
	}
	b.coldBodies[r.Cell] = body
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return err.Error()
	}
	gains[r.Cell] = gain{
		wcet:   float64(res.WCETOpt) / float64(res.WCETOrig),
		acet:   res.ACETOpt / res.ACETOrig,
		energy: res.EnergyOptPJ / res.EnergyOrigPJ,
	}
	return checkGuarantees(res.WCETOrig, res.WCETOpt, res.ACETOrig, res.ACETOpt, res.EnergyOrigPJ, res.EnergyOptPJ)
}

// traceRequest books one answered request into the ledger.
func (b *bench) traceRequest(ctx context.Context, l *ledger, r request, d time.Duration, cached bool) {
	prog := b.suite[r.Cell.Program].Prog
	l.probe("isa.fingerprint", func() error { isa.Fingerprint(prog); return nil })
	if cached {
		l.add("service.cache_hits", 1)
		return
	}
	l.add("service.cache_misses", 1)
	_, runCell, err := l.cell(ctx, b.suite[r.Cell.Program], r.Cell, serveOptions)
	l.extra += runCell // the probes inside are booked already
	if err != nil {
		b.fail("%s: ledger: %v", r.Cell, err)
		return
	}
	l.ns["service.overhead"] += d - runCell
}
