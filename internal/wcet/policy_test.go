package wcet

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
)

// AnalyzeHier is an entry point for unvalidated configurations, so it must
// reject them instead of dividing by zero or analyzing nonsense.
func TestPolicyAnalyzeValidatesConfig(t *testing.T) {
	p := isa.Build("v", isa.Code(8))
	par := Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}
	bad := []cache.Config{
		{},
		{Assoc: 0, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 3, BlockBytes: 16, CapacityBytes: 240, Policy: cache.PLRU},
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 64, Policy: cache.Policy(9)},
	}
	for _, cfg := range bad {
		if _, err := AnalyzeHier(context.Background(), p, cache.Hier1(cfg), par); err == nil {
			t.Errorf("AnalyzeHier accepted invalid config %v", cfg)
		}
	}
}

// The analysis must run to completion under every policy and produce a
// non-degenerate bound; with an empty initial cache the entry reference can
// never be a hit, so τ_w is positive under any sound policy model.
func TestPolicyAnalyzeCompletes(t *testing.T) {
	p := isa.Build("pol", isa.Loop(6, 4, isa.Code(10)), isa.Code(5))
	par := Params{HitCycles: 1, MissPenalty: 9, Lambda: 10}
	bounds := map[cache.Policy]int64{}
	for _, pol := range cache.Policies() {
		cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256, Policy: pol}
		res, err := AnalyzeHier(context.Background(), p, cache.Hier1(cfg), par)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.TauW <= 0 || res.Fetches <= 0 || res.Misses <= 0 {
			t.Fatalf("%s: degenerate result TauW=%d Fetches=%d Misses=%d",
				pol, res.TauW, res.Fetches, res.Misses)
		}
		bounds[pol] = res.TauW
	}
	// The FIFO and PLRU transfers are deliberately coarser than exact LRU,
	// and this program's WCET path is identical for all policies, so their
	// bounds cannot undercut the LRU bound.
	for _, pol := range []cache.Policy{cache.FIFO, cache.PLRU} {
		if bounds[pol] < bounds[cache.LRU] {
			t.Errorf("%s bound %d undercuts the LRU bound %d", pol, bounds[pol], bounds[cache.LRU])
		}
	}
}
