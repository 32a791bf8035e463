package absint

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
)

// snapOut deep-copies every exit state of r.
func snapOut(r *Result) []*State {
	snaps := make([]*State, len(r.out))
	for id, s := range r.out {
		if s != nil {
			snaps[id] = s.Clone()
		}
	}
	return snaps
}

// checkOut fails when any exit state of r moved away from its snapshot.
func checkOut(t *testing.T, who string, r *Result, snaps []*State) {
	t.Helper()
	for id, s := range r.out {
		want := snaps[id]
		if (s == nil) != (want == nil) {
			t.Fatalf("%s: exit state of block %d appeared or vanished", who, id)
		}
		if s == nil {
			continue
		}
		if !s.Equal(want) {
			t.Fatalf("%s: exit state of block %d changed after a release", who, id)
		}
	}
}

// releaseProg is a program with two loops, one holding a branch.
func releaseProg() *isa.Program {
	return isa.Build("rel",
		isa.Code(6),
		isa.Loop(10, 8, isa.Code(40), isa.If(0.5, isa.S(isa.Code(20)), isa.S(isa.Code(30)))),
		isa.Code(50),
		isa.Loop(6, 5, isa.Code(24)),
		isa.Code(12))
}

// TestReleaseRecyclesOnlyOwnStates releases a rolled-back re-analysis and
// checks that the results it shared states with are untouched: the seed (a
// full analysis, compacted like the optimizer's) and its parent keep every
// exit state's value while the recycled states are reused by two further
// re-analyses from the parent, and those re-analyses still match a
// from-scratch analysis. Retiring the seed then pools exactly the seed
// states the parent no longer aliases and hands the parent the rest.
func TestReleaseRecyclesOnlyOwnStates(t *testing.T) {
	p := releaseProg()
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

	stale, kept := map[*State]bool{}, 0
	for id, s := range seed.out {
		switch {
		case s == nil:
		case parent.out[id] == s:
			kept++
		default:
			stale[s] = true
		}
	}
	if len(stale) == 0 || kept == 0 {
		t.Fatalf("the parent replaced %d seed states and kept %d; the test needs both", len(stale), kept)
	}
	pooled, owned = len(pool.free), len(parent.own)
	seed.Retire(parent)
	got := pool.free[pooled:]
	if len(got) != len(stale) {
		t.Fatalf("retiring the seed pooled %d states, want the %d the parent no longer aliases", len(got), len(stale))
	}
	for _, s := range got {
		if !stale[s] {
			t.Fatal("retiring the seed pooled a state the parent still aliases")
		}
	}
	if n := len(parent.own) - owned; n != kept {
		t.Fatalf("the parent took over %d seed states, want %d", n, kept)
	}
	if n := parent.PooledStates(); n != 0 {
		t.Fatalf("%d of the parent's exit states sit in the pool", n)
	}
	checkOut(t, "parent after the seed retired", parent, parentSnap)
}

// TestReleaseFullAnalysisOwnsCompactStates checks that a full analysis, at
// the L1 and at an L2 gated by it, with and without the may component, owns
// every exit state it reaches and leaves each one compact: an arena of
// exactly its entries, every span without room.
func TestReleaseFullAnalysisOwnsCompactStates(t *testing.T) {
	x, lay := mustExpand(t, releaseProg())
	l1cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	l2cfg := cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 1024}
	const lambda = 10
	ctx := context.Background()
	check := func(who string, r *Result) {
		t.Helper()
		own := make(map[int32]bool, len(r.own))
		for _, id := range r.own {
			own[id] = true
		}
		reached := 0
		for id, s := range r.out {
			if s == nil {
				continue
			}
			reached++
			if !own[int32(id)] {
				t.Fatalf("%s: the exit state of block %d is not owned", who, id)
			}
			if len(s.arena) != s.live() || cap(s.arena) != s.live() {
				t.Fatalf("%s: block %d: arena of length %d, capacity %d for %d entries", who, id, len(s.arena), cap(s.arena), s.live())
			}
			for k, sp := range s.spans {
				if sp.n != sp.cap {
					t.Fatalf("%s: block %d: span %d holds %d entries in room for %d", who, id, k, sp.n, sp.cap)
				}
			}
		}
		if reached == 0 || len(r.own) != reached {
			t.Fatalf("%s: owns %d states of the %d reached", who, len(r.own), reached)
		}
	}
	analyze := func(who string, cfg cache.Config, l1 *Result, am bool) *Result {
		t.Helper()
		r, err := AnalyzeChain(ctx, x, lay, cfg, lambda, l1, nil, am)
		if err != nil {
			t.Fatal(err)
		}
		check(who, r)
		return r
	}
	l1 := analyze("L1", l1cfg, nil, true)
	analyze("L1 without the may component", l1cfg, nil, false)
	analyze("L2", l2cfg, l1, true)
	analyze("L2 without the may component", l2cfg, l1, false)
}
