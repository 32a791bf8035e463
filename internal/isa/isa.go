// Package isa defines the compact RISC-like intermediate representation on
// which the whole pipeline operates: fixed-size instructions grouped into
// basic blocks, programs with annotated natural loops, and an address
// layout with aligned loop headers.
//
// The representation deliberately abstracts away operand semantics: the
// unlocked-cache prefetching optimization (and the WCET analysis it relies
// on) only observes instruction *fetches* — their addresses, the memory
// blocks those addresses map to, and the control flow between them. This is
// the substitution, documented in DESIGN.md, for the ARMv7 binaries used by
// the original paper.
package isa

// InstrBytes is the size of every instruction in bytes (ARM-like fixed
// width). All addresses are multiples of InstrBytes.
const InstrBytes = 4

// Kind discriminates the instruction categories the analyses care about.
type Kind uint8

const (
	// KindOp is an ordinary instruction: it is fetched and falls through.
	KindOp Kind = iota
	// KindBranch is a conditional block terminator with two successors
	// (Succs[0] = taken, Succs[1] = fall-through).
	KindBranch
	// KindJump is an unconditional block terminator with one successor.
	KindJump
	// KindPrefetch is a software prefetch: besides being fetched like any
	// other instruction, it loads the memory block containing its Target
	// reference into the cache after the prefetch latency elapses.
	KindPrefetch
	// KindPad is a nop. The optimizer's PadToBlock ablation emits pads
	// with each prefetch so an insertion grows the text by a whole cache
	// block. Pads are fetched and cost one cycle like any other
	// instruction.
	KindPad
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindOp:
		return "op"
	case KindBranch:
		return "br"
	case KindJump:
		return "jmp"
	case KindPrefetch:
		return "pft"
	case KindPad:
		return "pad"
	default:
		return "?"
	}
}

// InstrRef names one instruction position inside a Program: instruction
// Index within block Block. It is the stable handle used by prefetch
// instructions to identify the item whose memory block they load (the paper's
// r_j): the concrete memory block is only resolved against a Layout, because
// relocation moves block boundaries.
type InstrRef struct {
	Block int // basic block ID
	Index int // instruction index within the block
}

// Instr is a single instruction. The zero value is a plain KindOp.
type Instr struct {
	Kind Kind
	// Level is meaningful only for KindPrefetch: the cache level the fill
	// targets. 0 and 1 both mean the L1 (the zero value keeps every
	// pre-hierarchy program identical); 2 means the fill installs into the
	// L2 only, leaving the L1 untouched — the prefetch-into-L2 candidate
	// class of the hierarchy optimizer.
	Level uint8
	// Target is meaningful only for KindPrefetch: the instruction whose
	// memory block this prefetch loads.
	Target InstrRef
}

// Block is a basic block: a maximal straight-line instruction sequence.
// Only the last instruction may be a KindBranch or KindJump.
type Block struct {
	ID     int
	Instrs []Instr
	// Succs lists successor block IDs. A block ending in KindBranch has
	// two (taken, fall-through); one ending in KindJump or falling through
	// has one; the program sink has none.
	Succs []int
	// TakenProb is the probability, used only by the average-case trace
	// driver, that a terminating KindBranch goes to Succs[0].
	TakenProb float64
	// Align, when non-zero, aligns the block's first instruction to a
	// multiple of Align bytes with assembler padding (the -falign-loops
	// behavior of the paper's GCC toolchain). Alignment boundaries act as
	// relocation firewalls: an inserted prefetch shifts addresses only up
	// to the next boundary, where the padding absorbs it.
	Align int
}

// NInstr returns the number of instructions in the block.
func (b *Block) NInstr() int { return len(b.Instrs) }

// Terminator returns the last instruction, or a zero Instr for an empty
// block.
func (b *Block) Terminator() Instr {
	if len(b.Instrs) == 0 {
		return Instr{}
	}
	return b.Instrs[len(b.Instrs)-1]
}

// LoopInfo describes one natural loop of the program. Loops are annotated by
// the builder and carry the flow bound required by WCET analysis.
type LoopInfo struct {
	// Head is the block ID of the loop header. The header's terminator is
	// a KindBranch whose taken edge (Succs[0]) enters the body and whose
	// fall-through edge exits the loop.
	Head int
	// Blocks lists the IDs of all member blocks, header included.
	Blocks []int
	// Bound is the maximum number of body executions per loop entry
	// (inclusive); it is the flow fact the IPET formulation consumes.
	Bound int
	// AvgIters is the mean number of iterations used by the average-case
	// trace driver; it must not exceed Bound.
	AvgIters float64
	// Parent is the index in Program.Loops of the innermost enclosing
	// loop, or -1 for a top-level loop.
	Parent int
}

// Program is a complete unit of analysis: an entry block, a set of basic
// blocks laid out in slice order, and loop annotations.
type Program struct {
	Name   string
	Blocks []*Block
	Entry  int
	Loops  []LoopInfo
	// Base is the address of the first text byte (DefaultBaseAddr when
	// zero). Blocks are laid out in slice order from here, with alignment
	// padding before every block that requests it.
	Base uint64
}

// NInstr returns the total number of instructions across all blocks.
func (p *Program) NInstr() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// NPrefetch returns the number of prefetch instructions in the program.
func (p *Program) NPrefetch() int {
	n := 0
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == KindPrefetch {
				n++
			}
		}
	}
	return n
}

// Instr returns the instruction named by ref.
func (p *Program) Instr(ref InstrRef) Instr {
	return p.Blocks[ref.Block].Instrs[ref.Index]
}

// LoopOf returns the index in p.Loops of the innermost loop containing block
// id, or -1 when the block is not inside any loop.
func (p *Program) LoopOf(id int) int {
	inner := -1
	for i := range p.Loops {
		for _, b := range p.Loops[i].Blocks {
			if b != id {
				continue
			}
			// Prefer the deepest (most nested) loop containing id.
			if inner == -1 || loopDepth(p, i) > loopDepth(p, inner) {
				inner = i
			}
		}
	}
	return inner
}

func loopDepth(p *Program, li int) int {
	d := 0
	for li >= 0 {
		d++
		li = p.Loops[li].Parent
	}
	return d
}

// Edit is one change to a block's instruction list: N > 0 slots inserted
// at At, or −N slots removed starting at At. It is the one description of
// how a mutation moves the instructions behind it.
type Edit struct {
	At InstrRef
	N  int
}

// Shift moves r through the edit so it keeps naming the same instruction:
// positions of At's block at or past the edit move by N. It returns false
// (and r unchanged) when the edit removed the instruction r names.
func (e Edit) Shift(r InstrRef) (InstrRef, bool) {
	if r.Block != e.At.Block || r.Index < e.At.Index {
		return r, true
	}
	if e.N < 0 && r.Index < e.At.Index-e.N {
		return r, false
	}
	r.Index += e.N
	return r, true
}

// InsertInstr inserts instruction in immediately after position at (so the
// new instruction occupies index at.Index+1). All InstrRef targets held by
// prefetch instructions anywhere in the program are adjusted so they keep
// naming the same instruction. It returns the reference of the inserted
// instruction.
//
// Inserting after a block terminator is rejected because it would change the
// control flow; callers must pick an in-block insertion point.
func (p *Program) InsertInstr(at InstrRef, in Instr) InstrRef {
	b := p.Blocks[at.Block]
	if at.Index >= len(b.Instrs) {
		panic("isa: InsertInstr index out of range")
	}
	term := b.Instrs[at.Index].Kind
	if (term == KindBranch || term == KindJump) && at.Index == len(b.Instrs)-1 {
		panic("isa: InsertInstr after block terminator")
	}
	return p.insert(InstrRef{Block: at.Block, Index: at.Index + 1}, in)
}

// InsertInstrBefore inserts instruction in immediately before position at
// (the new instruction takes index at.Index, shifting at and everything
// after it). Prefetch targets are adjusted like InsertInstr. It returns the
// reference of the inserted instruction.
func (p *Program) InsertInstrBefore(at InstrRef, in Instr) InstrRef {
	if at.Index < 0 || at.Index >= len(p.Blocks[at.Block].Instrs) {
		panic("isa: InsertInstrBefore index out of range")
	}
	return p.insert(at, in)
}

// insert places in at pos, shifting pos and everything after it.
func (p *Program) insert(pos InstrRef, in Instr) InstrRef {
	b := p.Blocks[pos.Block]
	b.Instrs = append(b.Instrs, Instr{})
	copy(b.Instrs[pos.Index+1:], b.Instrs[pos.Index:])
	b.Instrs[pos.Index] = in
	p.shiftTargets(Edit{At: pos, N: 1})
	return pos
}

// RemoveInstr deletes the instruction at ref (used to roll back a tentative
// prefetch insertion). Prefetch targets pointing past the removed slot are
// shifted back; a target naming the removed slot itself is left alone.
// Removing a block terminator is rejected.
func (p *Program) RemoveInstr(ref InstrRef) {
	b := p.Blocks[ref.Block]
	k := b.Instrs[ref.Index].Kind
	if k == KindBranch || k == KindJump {
		panic("isa: RemoveInstr would delete a terminator")
	}
	b.Instrs = append(b.Instrs[:ref.Index], b.Instrs[ref.Index+1:]...)
	p.shiftTargets(Edit{At: ref, N: -1})
}

// shiftTargets moves every prefetch target through e, a just-inserted
// prefetch's own included (its caller computed the target against the
// pre-edit indexing). A target naming a removed slot is left alone.
func (p *Program) shiftTargets(e Edit) {
	for _, blk := range p.Blocks {
		for i := range blk.Instrs {
			ins := &blk.Instrs[i]
			if ins.Kind != KindPrefetch {
				continue
			}
			if t, ok := e.Shift(ins.Target); ok {
				ins.Target = t
			}
		}
	}
}

// Clone returns a deep copy of the program. Optimizers work on clones so the
// original stays available as the comparison baseline (the paper's p vs p').
func (p *Program) Clone() *Program {
	q := &Program{
		Name:   p.Name,
		Entry:  p.Entry,
		Base:   p.Base,
		Blocks: make([]*Block, len(p.Blocks)),
		Loops:  make([]LoopInfo, len(p.Loops)),
	}
	for i, b := range p.Blocks {
		nb := &Block{
			ID:        b.ID,
			Instrs:    append([]Instr(nil), b.Instrs...),
			Succs:     append([]int(nil), b.Succs...),
			TakenProb: b.TakenProb,
			Align:     b.Align,
		}
		q.Blocks[i] = nb
	}
	for i, l := range p.Loops {
		q.Loops[i] = LoopInfo{
			Head:     l.Head,
			Blocks:   append([]int(nil), l.Blocks...),
			Bound:    l.Bound,
			AvgIters: l.AvgIters,
			Parent:   l.Parent,
		}
	}
	return q
}

// PrefetchEquivalent reports whether p and q are indistinguishable except
// for their prefetch instructions and the alignment pads accompanying them
// (the paper's Definition 5). It compares control flow and the sequence of
// remaining instructions block by block.
func PrefetchEquivalent(p, q *Program) bool {
	if len(p.Blocks) != len(q.Blocks) || p.Entry != q.Entry {
		return false
	}
	for i := range p.Blocks {
		pb, qb := p.Blocks[i], q.Blocks[i]
		if pb.ID != qb.ID || len(pb.Succs) != len(qb.Succs) {
			return false
		}
		for j := range pb.Succs {
			if pb.Succs[j] != qb.Succs[j] {
				return false
			}
		}
		if !sameModuloPrefetch(pb.Instrs, qb.Instrs) {
			return false
		}
	}
	return true
}

func sameModuloPrefetch(a, b []Instr) bool {
	fa := stripPrefetch(a)
	fb := stripPrefetch(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i].Kind != fb[i].Kind {
			return false
		}
	}
	return true
}

func stripPrefetch(in []Instr) []Instr {
	out := make([]Instr, 0, len(in))
	for _, x := range in {
		if x.Kind != KindPrefetch && x.Kind != KindPad {
			out = append(out, x)
		}
	}
	return out
}
