package isa

// DefaultBaseAddr is the address at which program text starts when a
// program does not override it. The value is block-aligned for every cache
// block size in the evaluation.
const DefaultBaseAddr = 1 << 16

// DefaultLoopAlign is the alignment, in bytes, applied to loop headers by
// the builder — the moral equivalent of GCC's -falign-loops on the paper's
// ARM toolchain.
const DefaultLoopAlign = 16

// Layout assigns an address to every instruction of a program.
//
// Blocks are laid out in slice order from a fixed base address. A block
// with a non-zero Align starts at the next multiple of its alignment; the
// assembler-style padding in between belongs to no instruction and is never
// fetched.
//
// The alignment boundaries are what makes prefetch insertion tractable:
// inserting an instruction shifts only the addresses between the insertion
// point and the next aligned block, whose padding absorbs the growth (or
// moves the remainder of the text by whole alignment quanta). Without them
// a 4-byte insertion would re-phase every downstream cache-block boundary
// in the program, and the relocation cost rcost (Equation 8 of the paper)
// would reject almost every candidate.
type Layout struct {
	prog  *Program
	addrs [][]uint64 // addrs[blockID][instrIndex]
	total int        // total instruction count
	end   uint64     // one past the last instruction
}

// NewLayout computes the address layout of p.
func NewLayout(p *Program) *Layout {
	base := p.Base
	if base == 0 {
		base = DefaultBaseAddr
	}
	l := &Layout{prog: p, addrs: make([][]uint64, len(p.Blocks))}
	addr := base
	n := 0
	for i, b := range p.Blocks {
		if b.Align > 0 {
			rem := addr % uint64(b.Align)
			if rem != 0 {
				addr += uint64(b.Align) - rem
			}
		}
		row := make([]uint64, len(b.Instrs))
		for j := range b.Instrs {
			row[j] = addr
			addr += InstrBytes
			n++
		}
		l.addrs[i] = row
	}
	l.total = n
	l.end = addr
	return l
}

// Addr returns the address of the instruction at ref.
func (l *Layout) Addr(ref InstrRef) uint64 { return l.addrs[ref.Block][ref.Index] }

// StartAddr returns the address of the first instruction of the program
// text.
func (l *Layout) StartAddr() uint64 {
	for _, row := range l.addrs {
		if len(row) > 0 {
			return row[0]
		}
	}
	return l.end
}

// NInstr returns the total number of instructions covered by the layout.
func (l *Layout) NInstr() int { return l.total }

// TextBytes returns the total text size including alignment padding.
func (l *Layout) TextBytes() uint64 { return l.end - l.StartAddr() }

// MemBlock returns the memory block index of ref for the given cache block
// size in bytes. Two instructions share a memory block exactly when they
// share this index; the index is also what a prefetch instruction loads.
func (l *Layout) MemBlock(ref InstrRef, blockBytes int) uint64 {
	return l.Addr(ref) / uint64(blockBytes)
}

// PrefetchTargetBlock resolves the memory block loaded by the prefetch
// instruction at ref. It panics if ref does not name a prefetch.
func (l *Layout) PrefetchTargetBlock(ref InstrRef, blockBytes int) uint64 {
	in := l.prog.Instr(ref)
	if in.Kind != KindPrefetch {
		panic("isa: PrefetchTargetBlock on a non-prefetch instruction")
	}
	return l.MemBlock(in.Target, blockBytes)
}
