package isa

import (
	"math/rand"
	"slices"
	"testing"
)

// editProgram builds a program with nested loops, branches and several
// aligned loop headers, so edits shift addresses across firewalls.
func editProgram() *Program {
	return Build("edits",
		Code(5),
		Loop(6, 4, Code(7), If(0.5, S(Code(3)), S(Code(6))), Loop(3, 2, Code(4))),
		Code(9),
		Loop(5, 3, Code(11)),
		Code(4))
}

// randomEdit applies one mutation through the Program's mutators: an
// insertion after or before a random instruction (a prefetch of a random
// instruction or a pad) or the removal of a random non-terminator.
func randomEdit(rng *rand.Rand, p *Program) {
	b := p.Blocks[rng.Intn(len(p.Blocks))]
	if len(b.Instrs) == 0 {
		return
	}
	ins := Instr{Kind: KindPad}
	if rng.Intn(2) == 0 {
		tb := p.Blocks[rng.Intn(len(p.Blocks))]
		if len(tb.Instrs) > 0 {
			ins = Instr{Kind: KindPrefetch, Level: uint8(2 * rng.Intn(2)), Target: InstrRef{Block: tb.ID, Index: rng.Intn(len(tb.Instrs))}}
		}
	}
	at := InstrRef{Block: b.ID, Index: rng.Intn(len(b.Instrs))}
	last := at.Index == len(b.Instrs)-1
	switch k := b.Instrs[at.Index].Kind; {
	case rng.Intn(3) == 0 && k != KindBranch && k != KindJump:
		p.RemoveInstr(at)
	case last && (k == KindBranch || k == KindJump):
		p.InsertInstrBefore(at, ins)
	case rng.Intn(2) == 0:
		p.InsertInstr(at, ins)
	default:
		p.InsertInstrBefore(at, ins)
	}
}

// blockCopy is one block's instructions and stamp at a point in time.
type blockCopy struct {
	instrs []Instr
	stamp  uint64
}

func copyBlocks(p *Program) []blockCopy {
	out := make([]blockCopy, len(p.Blocks))
	for i, b := range p.Blocks {
		out[i] = blockCopy{slices.Clone(b.Instrs), b.stamp}
	}
	return out
}

// TestUndoRestoresProgram runs random batches of InsertInstr,
// InsertInstrBefore and RemoveInstr inside an undo record; a batch that is
// undone must give back every block's instructions, prefetch targets
// included, and edit stamp exactly, and a layout derived across it must
// report no block changed. Kept batches chain, so later records start from
// edited blocks.
func TestUndoRestoresProgram(t *testing.T) {
	p := editProgram()
	rng := rand.New(rand.NewSource(7))
	undone := 0
	for round := 0; round < 300; round++ {
		before := copyBlocks(p)
		lay := NewLayout(p)
		p.BeginUndo()
		for k := 0; k < 1+rng.Intn(6); k++ {
			randomEdit(rng, p)
		}
		if rng.Intn(3) == 0 {
			p.DropUndo()
			continue
		}
		p.Undo()
		undone++
		for i, b := range p.Blocks {
			if !slices.Equal(b.Instrs, before[i].instrs) {
				t.Fatalf("round %d: block %d instructions not restored:\n got %v\nwant %v", round, i, b.Instrs, before[i].instrs)
			}
			if b.stamp != before[i].stamp {
				t.Fatalf("round %d: block %d stamp %d, want %d", round, i, b.stamp, before[i].stamp)
			}
		}
		d := lay.Derive()
		for i := range p.Blocks {
			if d.Changed(i) {
				t.Fatalf("round %d: block %d reported changed after an undo", round, i)
			}
		}
	}
	if undone < 100 {
		t.Fatalf("only %d batches undone", undone)
	}
	p.Undo() // without an open record: nothing happens
	after := copyBlocks(p)
	p.Undo()
	for i, b := range p.Blocks {
		if !slices.Equal(b.Instrs, after[i].instrs) {
			t.Fatalf("Undo without a record changed block %d", i)
		}
	}
}

// checkDerived compares d, derived from the layout whose blocks were old,
// against a fresh NewLayout of p: every address and the totals must agree,
// and every block whose addresses or instructions moved must be reported
// changed.
func checkDerived(t *testing.T, where string, p *Program, d *Layout, parent *Layout, old []blockCopy) {
	t.Helper()
	full := NewLayout(p)
	if !d.DerivedFrom(parent.ID()) || d.DerivedFrom(full.ID()) || full.DerivedFrom(parent.ID()) {
		t.Fatalf("%s: parent identity wrong", where)
	}
	if d.NInstr() != full.NInstr() || d.StartAddr() != full.StartAddr() || d.end != full.end {
		t.Fatalf("%s: totals diverge", where)
	}
	for i, b := range p.Blocks {
		if !slices.Equal(d.addrs[i], full.addrs[i]) {
			t.Fatalf("%s: block %d addresses %v, want %v", where, i, d.addrs[i], full.addrs[i])
		}
		moved := !slices.Equal(parent.addrs[i], full.addrs[i]) || !slices.Equal(old[i].instrs, b.Instrs)
		if moved && !d.Changed(i) {
			t.Fatalf("%s: block %d moved but is not reported changed", where, i)
		}
	}
}

// TestDerivedLayoutDifferential chains derived layouts through random
// edits, some of them undone, and after every step requires the derived
// layout to equal a fresh NewLayout and to report every block whose
// addresses or contents moved. It also pins an insertion that overflows an
// alignment pad: the rest of the text shifts by one whole alignment
// quantum, every block from the aligned header on is reported changed, and
// the blocks upstream of the edit are not.
func TestDerivedLayoutDifferential(t *testing.T) {
	p := editProgram()
	rng := rand.New(rand.NewSource(11))
	lay := NewLayout(p)
	for step := 0; step < 300; step++ {
		old := copyBlocks(p)
		undo := rng.Intn(4) == 0
		if undo {
			p.BeginUndo()
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			randomEdit(rng, p)
		}
		if undo {
			p.Undo()
		}
		d := lay.Derive()
		checkDerived(t, "random", p, d, lay, old)
		lay = d
	}

	p = editProgram()
	h := -1
	for i, b := range p.Blocks {
		if b.Align > 0 && i >= 3 {
			h = i
			break
		}
	}
	if h < 0 {
		t.Fatal("no aligned block with upstream blocks")
	}
	lay = NewLayout(p)
	prevEnd := lay.addrs[h-1][len(lay.addrs[h-1])-1] + InstrBytes
	pad := int(lay.addrs[h][0]-prevEnd) / InstrBytes
	old := copyBlocks(p)
	for k := 0; k <= pad; k++ { // one instruction more than the pad holds
		p.InsertInstrBefore(InstrRef{Block: h - 1, Index: 0}, Instr{Kind: KindPad})
	}
	d := lay.Derive()
	checkDerived(t, "pad overflow", p, d, lay, old)
	for i := range p.Blocks {
		switch {
		case i < h-1:
			if d.Changed(i) {
				t.Fatalf("pad overflow: upstream block %d reported changed", i)
			}
		case i >= h:
			if len(d.addrs[i]) > 0 && d.addrs[i][0]-lay.addrs[i][0] != uint64(p.Blocks[h].Align) {
				t.Fatalf("pad overflow: block %d moved by %d, want one alignment quantum %d",
					i, d.addrs[i][0]-lay.addrs[i][0], p.Blocks[h].Align)
			}
			if !d.Changed(i) {
				t.Fatalf("pad overflow: shifted block %d not reported changed", i)
			}
		}
	}
}
