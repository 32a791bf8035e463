package isa

import (
	"math/rand"
	"slices"
	"testing"
)

// refShiftTargets is the shiftTargets that walked every instruction of
// every block on each edit, before blocks counted their prefetches.
func refShiftTargets(p *Program, e Edit) {
	for _, blk := range p.Blocks {
		for i := range blk.Instrs {
			ins := &blk.Instrs[i]
			if ins.Kind != KindPrefetch {
				continue
			}
			if t, ok := e.Shift(ins.Target); ok && t != ins.Target {
				p.touch(blk)
				ins.Target = t
			}
		}
	}
}

// refInsert and refRemove are insert and RemoveInstr over refShiftTargets.
func refInsert(p *Program, pos InstrRef, in Instr) {
	b := p.Blocks[pos.Block]
	p.touch(b)
	b.Instrs = slices.Insert(b.Instrs, pos.Index, in)
	refShiftTargets(p, Edit{At: pos, N: 1})
}

func refRemove(p *Program, ref InstrRef) {
	b := p.Blocks[ref.Block]
	p.touch(b)
	b.Instrs = slices.Delete(b.Instrs, ref.Index, ref.Index+1)
	refShiftTargets(p, Edit{At: ref, N: -1})
}

// TestShiftTargetsDifferential applies seeded random edit sequences —
// prefetch and pad insertions before and after random instructions, and
// removals, some inside undo records that are then undone or kept —
// through the mutators to one program and through the full-walk reference
// to an identical copy, and checks after every step that both hold the
// same instructions and targets, the same block stamps and clock (so the
// same blocks were touched), the same undo record, and that every counted
// block's prefetch count matches its instructions.
func TestShiftTargetsDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := editProgram()
		q := p.Clone()
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				p.BeginUndo()
				q.BeginUndo()
			case r == 1:
				p.Undo()
				q.Undo()
			case r == 2:
				p.DropUndo()
				q.DropUndo()
			default:
				b := p.Blocks[rng.Intn(len(p.Blocks))]
				if len(b.Instrs) == 0 {
					continue
				}
				ins := Instr{Kind: KindPad}
				if rng.Intn(3) > 0 {
					tb := p.Blocks[rng.Intn(len(p.Blocks))]
					ins = Instr{Kind: KindPrefetch, Level: uint8(2 * rng.Intn(2)), Target: InstrRef{Block: tb.ID, Index: rng.Intn(len(tb.Instrs))}}
				}
				at := InstrRef{Block: b.ID, Index: rng.Intn(len(b.Instrs))}
				term := b.Instrs[at.Index].Kind == KindBranch || b.Instrs[at.Index].Kind == KindJump
				switch {
				case rng.Intn(3) == 0 && !term:
					p.RemoveInstr(at)
					refRemove(q, at)
				case term || rng.Intn(2) == 0:
					p.InsertInstrBefore(at, ins)
					refInsert(q, at, ins)
				default:
					p.InsertInstr(at, ins)
					refInsert(q, InstrRef{Block: at.Block, Index: at.Index + 1}, ins)
				}
			}
			if p.clock != q.clock || len(p.undo) != len(q.undo) {
				t.Fatalf("seed %d step %d: clock %d, undo record of %d blocks; reference %d, %d", seed, step, p.clock, len(p.undo), q.clock, len(q.undo))
			}
			for i, e := range p.undo {
				if e.b.ID != q.undo[i].b.ID || e.stamp != q.undo[i].stamp {
					t.Fatalf("seed %d step %d: undo entry %d saves block %d, reference block %d", seed, step, i, e.b.ID, q.undo[i].b.ID)
				}
			}
			for i, b := range p.Blocks {
				if !slices.Equal(b.Instrs, q.Blocks[i].Instrs) || b.stamp != q.Blocks[i].stamp {
					t.Fatalf("seed %d step %d: block %d differs from the full-walk reference", seed, step, i)
				}
				n := int32(0)
				for _, in := range b.Instrs {
					if in.Kind == KindPrefetch {
						n++
					}
				}
				if b.npftOK && b.npft != n {
					t.Fatalf("seed %d step %d: block %d counts %d prefetches, holds %d", seed, step, i, b.npft, n)
				}
			}
		}
	}
}
