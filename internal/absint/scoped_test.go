package absint

import (
	"context"
	"testing"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

// chainBlocks builds a straight line P2 → P1 → B → C: P2 holds a Level-2
// prefetch and P1 an L1 prefetch, both of the same instruction in C.
// Nothing aligns C, so an insertion into B relocates C while P2 and P1
// keep their addresses and instructions. P2 comes first so that its L1
// in-state is the cold entry state whatever P1's prefetch does: its L1 row
// and verdicts stay unchanged, and only its target can make the L2 rebuild
// its row.
func chainBlocks(ops int) *isa.Program {
	block := func(id, n int, succs ...int) *isa.Block {
		b := &isa.Block{ID: id, Succs: succs}
		for i := 0; i < n; i++ {
			b.Instrs = append(b.Instrs, isa.Instr{Kind: isa.KindOp})
		}
		if len(succs) > 0 {
			b.Instrs = append(b.Instrs, isa.Instr{Kind: isa.KindJump})
		}
		return b
	}
	p2, p1 := block(0, ops, 1), block(1, ops, 2)
	p2.Instrs = append([]isa.Instr{{Kind: isa.KindPrefetch, Level: 2}}, p2.Instrs...)
	p1.Instrs = append([]isa.Instr{{Kind: isa.KindPrefetch}}, p1.Instrs...)
	return &isa.Program{Name: "scoped", Blocks: []*isa.Block{p2, p1, block(2, ops, 3), block(3, 2*ops)}}
}

// TestScopedRowsDifferential pins the scoped transfer-row build: an edit
// that relocates a prefetch's target block without touching the
// prefetch's own block must still rebuild the prefetch's row, at the L1
// and at the gated L2. The target is chosen on the last word of a 32-byte
// L2 block (hence also of a 16-byte L1 block), so the one-instruction shift
// moves it to the next memory block at both levels; a row that kept the
// old target would prefetch the wrong block and misclassify the use.
func TestScopedRowsDifferential(t *testing.T) {
	p := chainBlocks(8)
	lay := isa.NewLayout(p)
	const c = 3
	tgt := -1
	for i := range p.Blocks[c].Instrs {
		if lay.Addr(isa.InstrRef{Block: c, Index: i})%32 == 28 {
			tgt = i
			break
		}
	}
	if tgt < 0 {
		t.Fatal("no instruction of C ends a 32-byte block")
	}
	for b := 0; b < 2; b++ {
		p.Blocks[b].Instrs[0].Target = isa.InstrRef{Block: c, Index: tgt}
	}
	if err := isa.Validate(p); err != nil {
		t.Fatal(err)
	}
	x, err := vivu.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	h := cache.Hierarchy{
		L1: cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 1024},
		L2: cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 4096},
	}
	const lambda = 8
	ctx := context.Background()
	r1, err := AnalyzeChain(ctx, x, lay, h.L1, lambda, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeChain(ctx, x, lay, h.L2, lambda, r1, nil, true)
	if err != nil {
		t.Fatal(err)
	}

	p.InsertInstr(isa.InstrRef{Block: 2, Index: 0}, isa.Instr{Kind: isa.KindOp})
	d := lay.Derive()
	if d.Changed(0) || d.Changed(1) || !d.Changed(2) || !d.Changed(c) {
		t.Fatal("the edit must change B and C and leave the prefetching blocks alone")
	}
	ref := isa.InstrRef{Block: c, Index: tgt}
	if lay.MemBlock(ref, 32) == d.MemBlock(ref, 32) || lay.MemBlock(ref, 16) == d.MemBlock(ref, 16) {
		t.Fatal("the target did not move to another memory block")
	}
	var buf []bool
	if src := rowSources(p, d, &buf); !src[0] || !src[1] {
		t.Fatal("rowSources misses a block whose prefetch target moved")
	}
	n1, err := AnalyzeChain(ctx, x, d, h.L1, lambda, nil, r1, true)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := AnalyzeChain(ctx, x, d, h.L2, lambda, n1, r2, true)
	if err != nil {
		t.Fatal(err)
	}
	if n1.from != r1.lay || n2.from != r2.lay || !d.DerivedFrom(r1.lay) {
		t.Fatal("the re-analyses did not take the derived-layout path")
	}
	for xb := range x.Blocks {
		if x.Blocks[xb].Orig == 0 && n1.Changed[xb] {
			t.Fatal("P2's L1 verdicts changed; the L2 leg needs them unchanged")
		}
	}
	full := isa.NewLayout(p)
	f1 := testAnalyze(t, x, full, h.L1, lambda)
	f2, err := AnalyzeL2(ctx, x, full, h, lambda, f1)
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range []struct {
		name      string
		got, want *Result
	}{{"L1", n1, f1}, {"L2", n2, f2}} {
		for id := range lv.want.Class {
			for i := range lv.want.Class[id] {
				if lv.got.Class[id][i] != lv.want.Class[id][i] || lv.got.Effective(id, i) != lv.want.Effective(id, i) {
					t.Fatalf("%s: block %d ref %d: %v/%v, want %v/%v", lv.name, id, i,
						lv.got.Class[id][i], lv.got.Effective(id, i), lv.want.Class[id][i], lv.want.Effective(id, i))
				}
			}
			if !lv.got.InState(id).Equal(lv.want.InState(id)) {
				t.Fatalf("%s: in-state of block %d diverges", lv.name, id)
			}
		}
	}
	// The prefetches must matter at both levels, or a stale row would go
	// unnoticed.
	for xb := range x.Blocks {
		if x.Blocks[xb].Orig != c {
			continue
		}
		if f1.Class[xb][tgt] != AlwaysHit || f2.Class[xb][tgt] != AlwaysHit {
			t.Fatalf("the use is %v at the L1 and %v at the L2, want the always-hits the prefetches provide",
				f1.Class[xb][tgt], f2.Class[xb][tgt])
		}
	}
}
