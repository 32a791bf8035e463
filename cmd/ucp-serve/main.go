// Command ucp-serve runs the analysis-as-a-service HTTP server: the full
// unlocked-cache-prefetching pipeline behind a JSON API with a
// content-addressed result cache, a bounded worker pool, and Prometheus
// metrics. See internal/service for the endpoint list.
//
// Usage:
//
//	ucp-serve -addr :8080
//	ucp-serve -addr :8080 -store-dir /var/lib/ucp/results   # restart-proof cache
//	ucp-serve -addr :8080 -journal-dir /var/lib/ucp/jobs    # crash-recoverable sweep jobs
//	ucp-serve -addr :8081 -worker                           # worker replica
//	ucp-serve -addr :8080 -worker-urls http://w1:8081,http://w2:8081
//	                                                        # coordinator: cells run on replicas
//	ucp-serve -addr :8080 -trace-dir /var/lib/ucp/traces -trace-sample 0.01
//	                                                        # durable trace/event sink
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/analyze \
//	     -d '{"program":"crc","config":"k14","tech":"45nm"}'
//
// The server drains gracefully on SIGINT/SIGTERM: listeners close, in
// -flight requests finish (up to -drain), and running sweep jobs are
// cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only when -pprof is enabled
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ucp/internal/dist"
	"ucp/internal/journal"
	"ucp/internal/service"
	"ucp/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent analysis cells (0 = GOMAXPROCS)")
		entries  = flag.Int("cache-entries", 512, "result-cache bound (entries)")
		maxBody  = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		timeout  = flag.Duration("job-timeout", 15*time.Minute, "per-sweep-job deadline")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
		storeDir = flag.String("store-dir", "", "persistent result-store directory; empty disables the disk tier")
		storeMax = flag.Int64("store-max-bytes", store.DefaultMaxBytes, "persistent result-store size bound in bytes")
		jrnlDir  = flag.String("journal-dir", "", "job-journal directory; sweep jobs survive a crash and resume on restart (empty disables)")
		worker   = flag.Bool("worker", false, "expose POST /v1/worker/cell for a distributed coordinator")
		workerAt = flag.String("worker-urls", "", "comma-separated worker base URLs (ucp-serve -worker); cells dispatch to replicas instead of running in-process")
		probeIvl = flag.Duration("probe-interval", 2*time.Second, "worker health-probe interval for -worker-urls (0 disables the prober)")
		traceDir = flag.String("trace-dir", "", "durable trace/event sink directory; empty keeps traces response-only")
		traceSmp = flag.Float64("trace-sample", 0, "head-sampling rate [0..1] for persisting successful request traces (failed and slow requests always persist)")
		traceMax = flag.Int64("trace-max-bytes", journal.DefaultSinkMaxBytes, "trace-sink segment size bound in bytes before rotation")
		pprofAt  = flag.String("pprof", "", "pprof listen address (e.g. localhost:6060); empty disables profiling")
		logJSON  = flag.Bool("log-json", false, "emit request logs as JSON lines instead of logfmt-style text")
	)
	flag.Parse()

	// One structured line per request (with its request ID) comes from the
	// service's logging middleware; this only picks the encoding.
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	// Profiling is off by default: the API handler never touches
	// http.DefaultServeMux, so the pprof routes are reachable only through
	// this separate listener, enabled by -pprof or the UCP_PPROF env var.
	if *pprofAt == "" {
		*pprofAt = os.Getenv("UCP_PPROF")
	}
	if *pprofAt != "" {
		go func(addr string) {
			logger.Info("pprof listening", "addr", addr)
			if err := http.ListenAndServe(addr, nil); err != nil {
				logger.Error("pprof", "err", err)
			}
		}(*pprofAt)
	}
	// The persistent tier outlives the service: it opens before and closes
	// after, so a drain's final cache writes are flushed durably.
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, *storeMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("result store open", "dir", *storeDir, "max_bytes", *storeMax,
			"entries", st.Stats().Entries, "bytes", st.Stats().Bytes)
	}
	// The journal likewise outlives the service: service.New replays it and
	// resumes any interrupted sweep jobs before the listener exists, so a
	// poller that reconnects after the restart never observes a gap.
	var jnl *journal.Journal
	if *jrnlDir != "" {
		var err error
		jnl, err = journal.Open(*jrnlDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("job journal open", "dir", *jrnlDir, "seq", jnl.Seq())
	}
	// The trace sink outlives the service for the same reason the store
	// does: the drain's last traced requests must land durably before the
	// process exits.
	var sink *journal.Sink
	if *traceDir != "" {
		var err error
		sink, err = journal.OpenSink(*traceDir, *traceMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("trace sink open", "dir", *traceDir, "sample", *traceSmp)
	}
	// -worker-urls turns this replica into a coordinator: sweep cells and
	// analyze requests execute on the listed workers via internal/dist,
	// with traceparent and X-Request-Id propagated on every dispatch.
	var coord *dist.Coordinator
	if *workerAt != "" {
		var urls []string
		for _, u := range strings.Split(*workerAt, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		var err error
		coord, err = dist.New(dist.Options{
			Workers:       urls,
			ProbeInterval: *probeIvl,
			Hedge:         true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer coord.Close()
		logger.Info("coordinator mode", "workers", len(urls))
	}
	cfg := service.Config{
		Workers:      *workers,
		CacheEntries: *entries,
		MaxBodyBytes: *maxBody,
		JobTimeout:   *timeout,
		Store:        st,
		Journal:      jnl,
		EnableWorker: *worker,
		TraceSink:    sink,
		TraceSample:  *traceSmp,
		Logger:       logger,
	}
	if coord != nil {
		cfg.CellExec = coord.Exec
	}
	svc := service.New(cfg)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("ucp-serve listening", "addr", *addr, "workers", *workers)

	select {
	case err := <-errc:
		// Listener failed before any signal (e.g. port in use).
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drain)
	// Flip /readyz to 503 and cancel running sweep jobs first, so in-flight
	// cells start unwinding while the listener drains its last requests.
	svc.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
	}
	// Wait for the job goroutines to exit, then flush the store: every
	// result computed up to the drain is durable for the next process.
	svc.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Error("store close", "err", err)
		}
	}
	if err := sink.Close(); err != nil {
		logger.Error("trace sink close", "err", err)
	}
	logger.Info("bye")
}
