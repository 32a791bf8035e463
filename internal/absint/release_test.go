package absint

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
)

// stateSnap is a deep copy of a state plus its cached hash fields.
type stateSnap struct {
	st     *State
	hash   uint64
	hashOK bool
}

func snapOut(r *Result) []stateSnap {
	snaps := make([]stateSnap, len(r.out))
	for id, s := range r.out {
		if s != nil {
			snaps[id] = stateSnap{st: s.Clone(), hash: s.hash, hashOK: s.hashOK}
		}
	}
	return snaps
}

// checkOut fails when any exit state of r moved away from its snapshot.
func checkOut(t *testing.T, who string, r *Result, snaps []stateSnap) {
	t.Helper()
	for id, s := range r.out {
		want := snaps[id]
		if (s == nil) != (want.st == nil) {
			t.Fatalf("%s: exit state of block %d appeared or vanished", who, id)
		}
		if s == nil {
			continue
		}
		if !s.Equal(want.st) {
			t.Fatalf("%s: exit state of block %d changed after a release", who, id)
		}
		if s.hash != want.hash || s.hashOK != want.hashOK {
			t.Fatalf("%s: exit state hash of block %d changed after a release", who, id)
		}
	}
}

// TestReleaseRecyclesOnlyOwnStates releases a rolled-back re-analysis and
// checks that the results it shared states with are untouched: the seed
// (interned, like the optimizer's) and its parent keep every exit state's
// value and hash while the recycled states are reused by two further
// re-analyses from the parent, and those re-analyses still match a
// from-scratch analysis.
func TestReleaseRecyclesOnlyOwnStates(t *testing.T) {
	p := isa.Build("rel",
		isa.Code(6),
		isa.Loop(10, 8, isa.Code(40), isa.If(0.5, isa.S(isa.Code(20)), isa.S(isa.Code(30)))),
		isa.Code(50),
		isa.Loop(6, 5, isa.Code(24)),
		isa.Code(12))
	x, lay := mustExpand(t, p)
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	const lambda = 10
	ctx := context.Background()
	analyzeFrom := func(prev *Result) *Result {
		t.Helper()
		r, err := AnalyzeChain(ctx, x, isa.NewLayout(p), cfg, lambda, nil, prev, true)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// prefetchAt inserts a prefetch of the instruction after at and returns
	// an undo that removes it again.
	prefetchAt := func(at isa.InstrRef) func() {
		target := isa.InstrRef{Block: at.Block, Index: at.Index + 1}
		pos := p.InsertInstr(at, isa.Instr{Kind: isa.KindPrefetch, Target: target})
		return func() { p.RemoveInstr(pos) }
	}
	last := len(p.Blocks) - 1

	seed := testAnalyze(t, x, lay, cfg, lambda)
	seed.Intern()
	seedSnap := snapOut(seed)
	prefetchAt(isa.InstrRef{Block: last - 2, Index: 0}) // committed
	parent := analyzeFrom(seed)
	parentSnap := snapOut(parent)

	undo := prefetchAt(isa.InstrRef{Block: last - 1, Index: 0})
	child := analyzeFrom(parent)
	shared := 0
	for id, s := range child.out {
		if s != nil && s == parent.out[id] {
			shared++
		}
	}
	if len(child.own) == 0 || shared == 0 {
		t.Fatalf("child owns %d states and shares %d with its parent; the test needs both", len(child.own), shared)
	}
	pool := &child.scr.sp
	pooled, owned := len(pool.free), len(child.own)
	undo()
	child.Release()
	if child.Class != nil {
		t.Fatal("released result still exposes its classifications")
	}
	child.Release() // idempotent
	(*Result)(nil).Release()
	if got := len(pool.free) - pooled; got != owned {
		t.Fatalf("release pooled %d states, want the %d the child owned", got, owned)
	}

	for i, at := range []isa.InstrRef{{Block: 0, Index: 0}, {Block: last, Index: 0}} {
		undo := prefetchAt(at)
		r := analyzeFrom(parent)
		want := testAnalyze(t, x, isa.NewLayout(p), cfg, lambda)
		for id := range want.Class {
			for k := range want.Class[id] {
				if r.Class[id][k] != want.Class[id][k] {
					t.Fatalf("re-analysis %d: block %d ref %d: %v, want %v", i, id, k, r.Class[id][k], want.Class[id][k])
				}
			}
			if !r.InState(id).Equal(want.InState(id)) {
				t.Fatalf("re-analysis %d: in-state of block %d diverges", i, id)
			}
		}
		undo()
		r.Release()
	}
	checkOut(t, "seed", seed, seedSnap)
	checkOut(t, "parent", parent, parentSnap)
}
