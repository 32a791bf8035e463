package isa

import (
	"testing"
	"testing/quick"
)

func straightLine(n int) *Program { return Build("straight", Code(n)) }

func TestBuildStraightLine(t *testing.T) {
	p := straightLine(10)
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := p.NInstr(); got != 12 { // prologue + 10 + epilogue
		t.Fatalf("NInstr = %d, want 12", got)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(p.Blocks))
	}
}

func TestBuildIf(t *testing.T) {
	p := Build("if", Code(2), If(0.5, S(Code(3)), S(Code(4))), Code(1))
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// entry(+branch), join, then, else
	if len(p.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(p.Blocks))
	}
	cond := p.Blocks[0]
	if cond.Terminator().Kind != KindBranch || len(cond.Succs) != 2 {
		t.Fatalf("entry should end in a two-way branch, got %v/%v", cond.Terminator().Kind, cond.Succs)
	}
}

func TestBuildIfThenOnly(t *testing.T) {
	p := Build("ifthen", IfThen(0.9, Code(5)))
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cond := p.Blocks[0]
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %v", cond.Succs)
	}
	// Fall-through must go directly to the join block.
	if cond.Succs[1] != 1 {
		t.Fatalf("else target = %d, want join block 1", cond.Succs[1])
	}
}

func TestBuildLoop(t *testing.T) {
	p := Build("loop", Loop(8, 6, Code(4)))
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(p.Loops))
	}
	l := p.Loops[0]
	if l.Bound != 8 || l.AvgIters != 6 || l.Parent != -1 {
		t.Fatalf("loop metadata = %+v", l)
	}
	head := p.Blocks[l.Head]
	if head.Terminator().Kind != KindBranch {
		t.Fatalf("loop head must end in branch")
	}
}

func TestBuildNestedLoops(t *testing.T) {
	p := Build("nest", Loop(5, 5, Code(2), Loop(3, 2, Code(1)), Code(2)))
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(p.Loops))
	}
	if p.Loops[1].Parent != 0 {
		t.Fatalf("inner loop parent = %d, want 0", p.Loops[1].Parent)
	}
	// Inner loop blocks must be a subset of outer loop blocks.
	outer := map[int]bool{}
	for _, b := range p.Loops[0].Blocks {
		outer[b] = true
	}
	for _, b := range p.Loops[1].Blocks {
		if !outer[b] {
			t.Fatalf("inner loop block %d not contained in outer loop", b)
		}
	}
}

func TestSwitchLowering(t *testing.T) {
	p := Build("switch", Switch([]float64{1, 2, 1}, S(Code(2)), S(Code(3)), S(Code(4))))
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLayoutStartAnchored(t *testing.T) {
	p := straightLine(10)
	lay := NewLayout(p)
	if got := lay.StartAddr(); got != DefaultBaseAddr {
		t.Fatalf("start addr = %#x, want %#x", got, uint64(DefaultBaseAddr))
	}
	if got := lay.Addr(InstrRef{Block: 0, Index: 11}); got != DefaultBaseAddr+11*InstrBytes {
		t.Fatalf("last instr addr = %#x", got)
	}
	if lay.NInstr() != 12 {
		t.Fatalf("NInstr = %d", lay.NInstr())
	}
}

func TestLayoutAlignsLoopHeaders(t *testing.T) {
	p := Build("al", Code(3), Loop(4, 2, Code(5)), Code(2))
	lay := NewLayout(p)
	head := p.Loops[0].Head
	if addr := lay.Addr(InstrRef{Block: head, Index: 0}); addr%DefaultLoopAlign != 0 {
		t.Fatalf("loop header at %#x not %d-byte aligned", addr, DefaultLoopAlign)
	}
}

// The relocation property the optimizer relies on: inserting an instruction
// leaves every upstream address unchanged and every address beyond the next
// alignment firewall either unchanged or shifted by a whole alignment
// quantum; only the region between the insertion point and that firewall
// slides by InstrBytes.
func TestInsertRelocationFirewall(t *testing.T) {
	p := Build("reloc", Code(4), Loop(5, 3, Code(6)), Code(5))
	before := NewLayout(p)
	head := p.Loops[0].Head
	headAddr := before.Addr(InstrRef{Block: head, Index: 0})
	entryAddr := before.Addr(InstrRef{Block: 0, Index: 1})

	// Insert into the entry block, upstream of the aligned loop header.
	ins := p.InsertInstr(InstrRef{Block: 0, Index: 2}, Instr{Kind: KindPrefetch, Target: InstrRef{Block: head, Index: 0}})
	after := NewLayout(p)

	if after.Addr(InstrRef{Block: 0, Index: 1}) != entryAddr {
		t.Fatal("address before the insertion point moved")
	}
	if d := after.Addr(ins) - before.Addr(InstrRef{Block: 0, Index: 2}); d != InstrBytes {
		t.Fatalf("inserted instruction at unexpected offset (%d)", d)
	}
	newHead := after.Addr(InstrRef{Block: head, Index: 0})
	if newHead%DefaultLoopAlign != 0 {
		t.Fatal("loop header lost its alignment")
	}
	if newHead != headAddr && newHead != headAddr+DefaultLoopAlign {
		t.Fatalf("header moved by a non-quantum amount: %#x -> %#x", headAddr, newHead)
	}
}

func TestInsertAdjustsPrefetchTargets(t *testing.T) {
	p := Build("targets", Code(6))
	// Prefetch pointing at block 0 index 4.
	p.InsertInstr(InstrRef{0, 0}, Instr{Kind: KindPrefetch, Target: InstrRef{0, 4}})
	// Target shifted to index 5 by the insertion at index 1.
	if got := p.Blocks[0].Instrs[1].Target; got != (InstrRef{0, 5}) {
		t.Fatalf("target after first insert = %v, want {0 5}", got)
	}
	// Insert another plain op before the target: target shifts again.
	p.InsertInstr(InstrRef{0, 2}, Instr{Kind: KindOp})
	if got := p.Blocks[0].Instrs[1].Target; got != (InstrRef{0, 6}) {
		t.Fatalf("target after second insert = %v, want {0 6}", got)
	}
	// Insert after the target: no shift.
	p.InsertInstr(InstrRef{0, 6}, Instr{Kind: KindOp})
	if got := p.Blocks[0].Instrs[1].Target; got != (InstrRef{0, 6}) {
		t.Fatalf("target after third insert = %v, want {0 6}", got)
	}
}

func TestEditShift(t *testing.T) {
	r := InstrRef{Block: 1, Index: 5}
	for _, tc := range []struct {
		name string
		e    Edit
		want InstrRef
		ok   bool
	}{
		{"insert before", Edit{At: InstrRef{1, 2}, N: 3}, InstrRef{1, 8}, true},
		{"insert at", Edit{At: InstrRef{1, 5}, N: 1}, InstrRef{1, 6}, true},
		{"insert after", Edit{At: InstrRef{1, 6}, N: 2}, r, true},
		{"remove the instruction", Edit{At: InstrRef{1, 5}, N: -1}, r, false},
		{"remove a range holding it", Edit{At: InstrRef{1, 3}, N: -3}, r, false},
		{"remove before", Edit{At: InstrRef{1, 2}, N: -3}, InstrRef{1, 2}, true},
		{"remove after", Edit{At: InstrRef{1, 6}, N: -2}, r, true},
		{"other block", Edit{At: InstrRef{0, 0}, N: 4}, r, true},
		{"other block removal", Edit{At: InstrRef{2, 5}, N: -1}, r, true},
	} {
		got, ok := tc.e.Shift(r)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: Shift(%v) through %+v = %v, %v; want %v, %v", tc.name, r, tc.e, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRemoveInstrKeepsTargetOfRemovedSlot(t *testing.T) {
	p := Build("removed", Code(6))
	p.InsertInstr(InstrRef{0, 0}, Instr{Kind: KindPrefetch, Target: InstrRef{0, 4}})
	// The prefetch sits at 1 and targets {0 5}; remove the target itself.
	p.RemoveInstr(InstrRef{0, 5})
	if got := p.Blocks[0].Instrs[1].Target; got != (InstrRef{0, 5}) {
		t.Fatalf("target after removing its slot = %v, want {0 5} (left alone)", got)
	}
	// Removing a slot before the target shifts it back.
	p.RemoveInstr(InstrRef{0, 2})
	if got := p.Blocks[0].Instrs[1].Target; got != (InstrRef{0, 4}) {
		t.Fatalf("target after removing an earlier slot = %v, want {0 4}", got)
	}
}

func TestRemoveInstrUndoesInsert(t *testing.T) {
	p := Build("undo", Code(5), IfThen(0.5, Code(3)))
	q := p.Clone()
	at := q.InsertInstr(InstrRef{0, 1}, Instr{Kind: KindPrefetch, Target: InstrRef{2, 0}})
	q.RemoveInstr(at)
	if !PrefetchEquivalent(p, q) {
		t.Fatalf("programs differ after insert+remove")
	}
	if p.NInstr() != q.NInstr() {
		t.Fatalf("instruction counts differ: %d vs %d", p.NInstr(), q.NInstr())
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Build("clone", Code(3), Loop(4, 2, Code(2)))
	q := p.Clone()
	q.Blocks[0].Instrs[0].Kind = KindPrefetch
	q.Loops[0].Bound = 99
	if p.Blocks[0].Instrs[0].Kind == KindPrefetch {
		t.Fatal("clone shares instruction storage")
	}
	if p.Loops[0].Bound == 99 {
		t.Fatal("clone shares loop storage")
	}
}

func TestPrefetchEquivalent(t *testing.T) {
	p := Build("eq", Code(4), IfThen(0.3, Code(2)))
	q := p.Clone()
	if !PrefetchEquivalent(p, q) {
		t.Fatal("clone should be prefetch-equivalent")
	}
	q.InsertInstr(InstrRef{0, 1}, Instr{Kind: KindPrefetch, Target: InstrRef{0, 0}})
	if !PrefetchEquivalent(p, q) {
		t.Fatal("adding a prefetch must preserve prefetch-equivalence")
	}
	q.InsertInstr(InstrRef{0, 1}, Instr{Kind: KindOp})
	if PrefetchEquivalent(p, q) {
		t.Fatal("adding a plain op must break prefetch-equivalence")
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	p := straightLine(3)
	p.Blocks[0].Succs = []int{42}
	if err := Validate(p); err == nil {
		t.Fatal("expected out-of-range successor error")
	}

	p = straightLine(3)
	p.Blocks[0].Instrs = nil
	if err := Validate(p); err == nil {
		t.Fatal("expected empty block error")
	}

	p = Build("loopbad", Loop(3, 2, Code(1)))
	p.Loops[0].Bound = 0
	if err := Validate(p); err == nil {
		t.Fatal("expected loop bound error")
	}
}

// Property: for any sequence of insert positions, the layout stays
// monotonically increasing, instruction-contiguous within blocks, and every
// aligned block stays aligned.
func TestLayoutInvariantProperty(t *testing.T) {
	f := func(positions []uint8) bool {
		p := Build("prop", Code(6), Loop(3, 2, Code(7)), IfThen(0.5, Code(4)), Code(3))
		for _, pos := range positions {
			n := p.NInstr()
			k := int(pos) % n
			bi, ii := 0, 0
			g := 0
			for biX, b := range p.Blocks {
				if g+len(b.Instrs) > k {
					bi, ii = biX, k-g
					break
				}
				g += len(b.Instrs)
			}
			kind := p.Blocks[bi].Instrs[ii].Kind
			if (kind == KindBranch || kind == KindJump) && ii == len(p.Blocks[bi].Instrs)-1 {
				continue
			}
			p.InsertInstr(InstrRef{bi, ii}, Instr{Kind: KindOp})
		}
		lay := NewLayout(p)
		prev := uint64(0)
		for _, b := range p.Blocks {
			if b.Align > 0 && lay.Addr(InstrRef{b.ID, 0})%uint64(b.Align) != 0 {
				return false
			}
			for ii := range b.Instrs {
				a := lay.Addr(InstrRef{b.ID, ii})
				if a <= prev {
					return false
				}
				if ii > 0 && a != lay.Addr(InstrRef{b.ID, ii - 1})+InstrBytes {
					return false
				}
				prev = a
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveInstrRejectsTerminator(t *testing.T) {
	p := Build("term", IfThen(0.5, Code(2)))
	defer func() {
		if recover() == nil {
			t.Fatal("removing a terminator must panic")
		}
	}()
	b := p.Blocks[0]
	p.RemoveInstr(InstrRef{0, len(b.Instrs) - 1})
}

func TestInsertInstrBeforeHead(t *testing.T) {
	p := Build("head", Code(4))
	ref := p.InsertInstrBefore(InstrRef{0, 0}, Instr{Kind: KindPrefetch, Target: InstrRef{0, 2}})
	if ref != (InstrRef{0, 0}) {
		t.Fatalf("inserted at %v", ref)
	}
	if p.Blocks[0].Instrs[0].Kind != KindPrefetch {
		t.Fatal("prefetch not at block head")
	}
	// Its own target shifted past the insertion.
	if got := p.Blocks[0].Instrs[0].Target; got != (InstrRef{0, 3}) {
		t.Fatalf("target = %v, want {0 3}", got)
	}
}

func TestNPrefetchAndLoopOf(t *testing.T) {
	p := Build("meta", Loop(3, 2, Code(2)))
	if p.NPrefetch() != 0 {
		t.Fatal("fresh program has no prefetches")
	}
	head := p.Loops[0].Head
	if p.LoopOf(head) != 0 {
		t.Fatal("LoopOf(header) must be its loop")
	}
	if p.LoopOf(p.Entry) != -1 {
		t.Fatal("entry is outside all loops")
	}
}
