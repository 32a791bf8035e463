package core

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/malardalen"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// TestFindNextUseKeepsPathBuffer pins that a WCET-path walk keeps the path
// buffer it grew even when it finds no use: after a search that walks the
// whole path in vain, a search that finds its use no further along
// allocates nothing.
func TestFindNextUseKeepsPathBuffer(t *testing.T) {
	bm, ok := malardalen.ByName("crc")
	if !ok {
		t.Fatal("unknown program crc")
	}
	x, err := vivu.Expand(bm.Prog.Clone())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Table2()[0]
	res, err := wcet.AnalyzeXHier(context.Background(), x, cache.Hier1(cfg), testPar)
	if err != nil {
		t.Fatal(err)
	}
	o := &optimizer{x: x, res: res, topoPos: make([]int, len(x.Blocks))}
	for i, id := range x.Topo {
		o.topoPos[id] = i
	}
	from := vivu.Ref{XB: x.Topo[0]}
	succ := o.wcetSuccBlock(from.XB)
	if succ == -1 {
		t.Fatal("the entry block has no WCET successor")
	}
	bb := cfg.BlockBytes
	target := o.memBlockOf(vivu.Ref{XB: succ}, bb)
	const nowhere = ^uint64(0)
	_, _, path, found := o.findNextUse(from, target, bb)
	if !found || len(path) < 2 {
		t.Fatalf("search for the successor's first block: found %v after %d steps; want a use at least 2 steps on", found, len(path))
	}
	if _, _, _, found := o.findNextUse(from, nowhere, bb); found {
		t.Fatal("a search for no memory block found a use")
	}
	allocs := testing.AllocsPerRun(20, func() {
		o.findNextUse(from, nowhere, bb)
		o.findNextUse(from, target, bb)
	})
	if allocs != 0 {
		t.Fatalf("a failed search followed by a found one allocates %.1f times; want 0", allocs)
	}
}
