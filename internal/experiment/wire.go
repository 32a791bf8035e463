package experiment

import "ucp/internal/obs"

// CellSpec names one use case the way users write it: a benchmark program,
// a Table 2 configuration label, a technology name, and the options that
// change its numbers. It is the analysis service's /v1/analyze request
// body and the selection half of the coordinator→worker CellRequest.
type CellSpec struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Tech    string `json:"tech"`
	// Policy is the cache replacement policy ("lru", "fifo", "plru");
	// empty selects LRU, the paper's machine model.
	Policy string `json:"policy,omitempty"`
	// Runs is the number of average-case simulations (default 3).
	Runs int `json:"runs,omitempty"`
	// ValidationBudget caps the optimizer's re-analyses (0 = default).
	ValidationBudget int `json:"validation_budget,omitempty"`
	// L2 backs the selected Table 2 configuration (the L1) with a second
	// cache level; omitted = the paper's single-level model.
	L2 *L2Request `json:"l2,omitempty"`
}

// L2Request is the optional second cache level of a cell. The geometry
// must form a valid hierarchy with the selected L1 (capacity at least the
// L1's, block size a multiple of the L1's) or the cell is refused.
type L2Request struct {
	Assoc         int `json:"assoc"`
	BlockBytes    int `json:"block_bytes"`
	CapacityBytes int `json:"capacity_bytes"`
	// Policy is the L2 replacement policy; empty selects LRU.
	Policy string `json:"policy,omitempty"`
}

// CellRequest is the coordinator→worker wire format (POST
// /v1/worker/cell): one cell plus the two execution switches a distributed
// sweep must control. SkipReduced distinguishes the two callers: a
// coordinator fronting /v1/analyze ships skip_reduced=true (its results
// carry no reduced-capacity series), while a distributed ucp-bench sweep
// ships false so the returned Cell feeds Figure 5 and the CSV
// byte-identically to a local run.
type CellRequest struct {
	CellSpec
	SkipReduced bool `json:"skip_reduced,omitempty"`
	Explain     bool `json:"explain,omitempty"`
}

// CellResponse is the worker→coordinator envelope. Trace is present only
// when the request carried a traceparent header: the worker's span tree,
// rooted in the remote trace context, which the coordinator grafts under
// its dispatch span so one tree spans both processes.
type CellResponse struct {
	Cell  Cell          `json:"cell"`
	Trace *obs.SpanTree `json:"trace,omitempty"`
}
