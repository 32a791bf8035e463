package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ucp/internal/cache"
	"ucp/internal/cliutil"
	"ucp/internal/core"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/faults"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
)

// AnalyzeRequest selects one use case: a benchmark program, a Table 2
// cache configuration, a process technology, and optionally a replacement
// policy, run count, validation budget and L2. It is the same type a
// coordinator ships to a worker, so both requests resolve one way.
type AnalyzeRequest = experiment.CellSpec

// ResultL2 carries the per-L2 measurements of a hierarchy analysis.
type ResultL2 struct {
	Assoc          int     `json:"assoc"`
	BlockBytes     int     `json:"block_bytes"`
	CapacityBytes  int     `json:"capacity_bytes"`
	Policy         string  `json:"policy"`
	InsertedL2     int     `json:"inserted_l2"`
	WCETMissesOrig int64   `json:"wcet_misses_orig"`
	WCETMissesOpt  int64   `json:"wcet_misses_opt"`
	MissRateOrig   float64 `json:"missrate_orig"`
	MissRateOpt    float64 `json:"missrate_opt"`
}

// Result is the measurement of one use case: the paper's per-cell metrics
// before and after the prefetch optimization, plus the content address the
// result is cached under.
type Result struct {
	Program       string  `json:"program"`
	Config        string  `json:"config"`
	Assoc         int     `json:"assoc"`
	BlockBytes    int     `json:"block_bytes"`
	CapacityBytes int     `json:"capacity_bytes"`
	Policy        string  `json:"policy"`
	Tech          string  `json:"tech"`
	Inserted      int     `json:"inserted"`
	Cond3Reverted bool    `json:"cond3_reverted"`
	WCETOrig      int64   `json:"wcet_orig"`
	WCETOpt       int64   `json:"wcet_opt"`
	ACETOrig      float64 `json:"acet_orig"`
	ACETOpt       float64 `json:"acet_opt"`
	MissRateOrig  float64 `json:"missrate_orig"`
	MissRateOpt   float64 `json:"missrate_opt"`
	EnergyOrigPJ  float64 `json:"energy_orig_pj"`
	EnergyOptPJ   float64 `json:"energy_opt_pj"`
	// L2 is present only for hierarchy requests; single-level responses
	// keep their historical shape.
	L2       *ResultL2 `json:"l2,omitempty"`
	CacheKey string    `json:"cache_key"`
}

// httpError carries a status code from request resolution to the handler.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// useCase is a fully resolved AnalyzeRequest.
type useCase struct {
	bench  malardalen.Benchmark
	cfgIdx int
	// hier is the Table 2 L1 under the requested policy, backed by the
	// requested L2 (the zero L2 means single-level).
	hier   cache.Hierarchy
	tech   energy.Tech
	runs   int
	budget int
}

// String names the cell in logs, errors and fault keys:
// "program/config/tech".
func (uc useCase) String() string {
	return fmt.Sprintf("%s/%s/%s", uc.bench.Name, cache.ConfigID(uc.cfgIdx), uc.tech)
}

// options is the experiment configuration that runs uc as one cell under
// the caller's two execution switches.
func (uc useCase) options(skipReduced, explain bool) experiment.Options {
	return experiment.Options{
		Policy:           uc.hier.L1.Policy,
		L2:               uc.hier.L2,
		Runs:             uc.runs,
		ValidationBudget: uc.budget,
		SkipReduced:      skipReduced,
		Explain:          explain,
	}
}

// resolve validates a public AnalyzeRequest: resolveCell, and a runs count
// within maxRuns (400 beyond it).
func (s *Server) resolve(req AnalyzeRequest) (useCase, error) {
	uc, err := s.resolveCell(req)
	if err == nil && uc.runs > maxRuns {
		return useCase{}, errorf(400, "runs %d out of range [1,%d]", req.Runs, maxRuns)
	}
	return uc, err
}

// resolveCell validates an AnalyzeRequest against the benchmark suite and
// the configuration table. An unknown program is 404 (the resource does not
// exist); malformed configs, techs, L2 geometries and option values are
// 400. It leaves the runs count unbounded, as a local sweep does: the
// worker endpoint, which a coordinator feeds the cells of such a sweep,
// resolves through it directly.
func (s *Server) resolveCell(req AnalyzeRequest) (useCase, error) {
	b, ok := s.benches[req.Program]
	if !ok {
		return useCase{}, errorf(404, "unknown benchmark %q", req.Program)
	}
	var l2 cache.Config
	if req.L2 != nil {
		var err error
		l2, err = cliutil.L2(req.L2.Assoc, req.L2.BlockBytes, req.L2.CapacityBytes, req.L2.Policy)
		if err != nil {
			return useCase{}, errorf(400, "l2: %v", err)
		}
	}
	ci, h, tech, err := cliutil.Cell(req.Config, req.Policy, req.Tech, l2)
	if err != nil {
		return useCase{}, errorf(400, "%v", err)
	}
	runs := req.Runs
	if runs == 0 {
		runs = 3
	}
	if runs < 0 {
		return useCase{}, errorf(400, "runs %d must be positive", req.Runs)
	}
	if req.ValidationBudget < 0 {
		return useCase{}, errorf(400, "validation_budget must be non-negative")
	}
	return useCase{bench: b, cfgIdx: ci, hier: h, tech: tech, runs: runs, budget: req.ValidationBudget}, nil
}

// maxRuns bounds the per-request simulation count of the public routes so
// a single query cannot monopolize a server for long.
const maxRuns = 64

// cacheKey is the content address of a use-case result: a SHA-256 over the
// program fingerprint (which already covers the full instruction stream,
// layout, and flow facts) and every option that changes the numbers. The
// leading version tag invalidates the scheme wholesale when the encoding
// or the pipeline semantics change. The replacement policy is part of the
// address: two requests differing only in policy must never share a result.
//
// A configured L2 appends its full geometry and policy behind an "|l2|"
// marker. The suffix is append-only and absent for single-level requests,
// so every pre-hierarchy key — including entries in persistent stores — is
// still addressed byte-identically, while an L1-only and an L1+L2 request
// can never collide (their preimages differ in the marker).
func cacheKey(fp string, cfg cache.Config, tech energy.Tech, runs, budget int, l2 cache.Config) string {
	pre := fmt.Appendf(nil, "ucp-v1|%s|%d|%d|%d|%s|%d|%d|%s",
		fp, cfg.Assoc, cfg.BlockBytes, cfg.CapacityBytes, tech, runs, budget, cfg.Policy)
	if l2 != (cache.Config{}) {
		pre = fmt.Appendf(pre, "|l2|%d|%d|%d|%s",
			l2.Assoc, l2.BlockBytes, l2.CapacityBytes, l2.Policy)
	}
	h := sha256.Sum256(pre)
	return hex.EncodeToString(h[:])
}

// keyFor computes the content address of a resolved use case.
func (s *Server) keyFor(uc useCase) string {
	return cacheKey(isa.Fingerprint(uc.bench.Prog), uc.hier.L1, uc.tech, uc.runs, uc.budget, uc.hier.L2)
}

// analyze returns the measurement for one resolved use case, serving it
// from the content-addressed cache when an identical query has already
// been answered. cached reports where the result came from. The analysis
// polls ctx cooperatively; an interrupted analysis returns a typed
// interrupt error and caches nothing.
func (s *Server) analyze(ctx context.Context, uc useCase) (res Result, cached bool, err error) {
	res, _, cached, err = s.analyzeExplain(ctx, uc, false)
	return res, cached, err
}

// analyzeExplain is analyze with an optional per-prefetch-decision explain
// report. An explaining request bypasses the cache *read* — the cached
// Result carries no decisions, and a trace of a cache hit would explain
// nothing — but still publishes its Result for later plain requests.
func (s *Server) analyzeExplain(ctx context.Context, uc useCase, explain bool) (res Result, decisions []core.Decision, cached bool, err error) {
	key := s.keyFor(uc)
	if !explain {
		if v, ok := s.cache.get(ctx, key); ok {
			return v, nil, true, nil
		}
	}
	if err := faults.Fire(ctx, "service.analyze", uc.bench.Name); err != nil {
		return Result{}, nil, false, err
	}

	// The remote-execution seam: a coordinator-configured server ships the
	// cell to a worker replica instead of running the pipeline locally.
	runCell := experiment.RunCell
	if s.cfg.CellExec != nil {
		runCell = s.cfg.CellExec
	}
	start := time.Now()
	cell, err := runCell(ctx, uc.bench, uc.cfgIdx, uc.tech, uc.options(true, explain))
	s.metrics.observeAnalysis(uc.hier.L1.Policy, time.Since(start), err == nil)
	if err != nil {
		// The pipeline is total over the suite, so this is unexpected;
		// it is not a cacheable result either way.
		return Result{}, nil, false, fmt.Errorf("analyze %v: %w", uc, err)
	}
	res = Result{
		Program:       cell.Program,
		Config:        cell.ConfigID,
		Assoc:         cell.Cfg.Assoc,
		BlockBytes:    cell.Cfg.BlockBytes,
		CapacityBytes: cell.Cfg.CapacityBytes,
		Policy:        cell.Cfg.Policy.String(),
		Tech:          cell.Tech.String(),
		Inserted:      cell.Inserted,
		Cond3Reverted: cell.Cond3Reverted,
		WCETOrig:      cell.TauOrig,
		WCETOpt:       cell.TauOpt,
		ACETOrig:      cell.ACETOrig,
		ACETOpt:       cell.ACETOpt,
		MissRateOrig:  cell.MissRateOrig,
		MissRateOpt:   cell.MissRateOpt,
		EnergyOrigPJ:  cell.EnergyOrig,
		EnergyOptPJ:   cell.EnergyOpt,
		CacheKey:      key,
	}
	if cell.HasL2() {
		res.L2 = &ResultL2{
			Assoc:          cell.L2Cfg.Assoc,
			BlockBytes:     cell.L2Cfg.BlockBytes,
			CapacityBytes:  cell.L2Cfg.CapacityBytes,
			Policy:         cell.L2Cfg.Policy.String(),
			InsertedL2:     cell.InsertedL2,
			WCETMissesOrig: cell.L2MissWOrig,
			WCETMissesOpt:  cell.L2MissWOpt,
			MissRateOrig:   cell.L2MissRateOrig,
			MissRateOpt:    cell.L2MissRateOpt,
		}
	}
	if perr := s.cache.put(ctx, key, res); perr != nil {
		// Persistence is an upgrade, not a gate: the result is correct and
		// resident in memory, so a full disk degrades into restart misses.
		s.log.Warn("result store put failed", "key", key, "err", perr)
	}
	return res, cell.Decisions, false, nil
}
