package isa

import "sync/atomic"

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
	// rows is the slab holding the address rows this layout made; every
	// other row is its parent's.
	rows  []uint64
	total int    // total instruction count
	end   uint64 // one past the last instruction

	// id names the layout; parent is the id of the layout it was derived
	// from, 0 for one computed by NewLayout. A derived layout names its
	// parent instead of pointing at it, so a chain of derivations keeps
	// only the newest layout alive.
	id, parent uint64
	// stamps[b] is block b's edit stamp when the layout was computed.
	stamps []uint64
	// changed[b] reports whether block b's addresses or instructions differ
	// from the parent layout's; nil without a parent.
	changed []bool
}

// layoutIDs hands out layout ids; 0 means "no layout".
var layoutIDs atomic.Uint64

// NewLayout computes the address layout of p.
func NewLayout(p *Program) *Layout {
	return layOut(p, nil)
}

// Derive returns the layout of l's program as it is now, computed from l:
// a block whose start address and length are unchanged keeps l's address
// row, and the result records which blocks changed since l (see Changed).
// A block's instructions count as changed when one of the Program's
// mutators wrote to it since l was computed (an undo of those writes
// restores the old contents and counts as unchanged); a direct write to
// Block.Instrs is not seen. l itself is left as it was. The new layout's
// rows and tables come from what the program's last released layout gave
// back (see Release), so Derive, like the mutators, must not run
// concurrently with another use of the program.
func (l *Layout) Derive() *Layout {
	return layOut(l.prog, l)
}

// poisonAddr fills a given-back address row under reuse.Poison; it is no
// instruction's address.
const poisonAddr = ^uint64(0)

// Release ends the life of a layout nothing was derived from. A derived
// layout gives the slab of the address rows it made (the rows it shares
// with its parent stay) and its per-block tables back to its program, for
// the program's next Derive to take. A layout computed by NewLayout gives
// nothing back, since other goroutines may lay out the same program.
// Either way the layout is cleared, so a later use fails loudly. Release
// is nil-safe and idempotent.
func (l *Layout) Release() {
	if l == nil || l.addrs == nil {
		return
	}
	if l.parent != 0 {
		p := l.prog
		p.layRows.Put(l.rows, poisonAddr)
		p.layAddrs.Put(l.addrs, nil)
		p.layStamps.Put(l.stamps, poisonAddr)
		p.layChanged.Put(l.changed, true)
	}
	l.addrs, l.rows, l.stamps, l.changed = nil, nil, nil, nil
}

// layOut lays p out from its base address, deriving from parent when it is
// non-nil. A derived layout's tables and row slab come from the program's
// spares; a fresh layout allocates its own, so concurrent NewLayout calls
// on one program share nothing.
func layOut(p *Program, parent *Layout) *Layout {
	if parent != nil && len(parent.addrs) != len(p.Blocks) {
		parent = nil
	}
	base := p.Base
	if base == 0 {
		base = DefaultBaseAddr
	}
	nb := len(p.Blocks)
	l := &Layout{prog: p, id: layoutIDs.Add(1)}
	if parent != nil {
		l.parent = parent.id
		l.addrs, l.stamps, l.changed = p.layAddrs.Take(nb), p.layStamps.Take(nb), p.layChanged.Take(nb)
	} else {
		l.addrs, l.stamps = make([][]uint64, nb), make([]uint64, nb)
	}
	// The first pass keeps the parent's row of every block whose start
	// address and length are unchanged and counts the instructions of the
	// others; the second lays those out into one slab.
	addr, n, need := base, 0, 0
	for i, b := range p.Blocks {
		addr = b.alignUp(addr)
		k := len(b.Instrs)
		l.stamps[i] = b.stamp
		if parent != nil && len(parent.addrs[i]) == k && (k == 0 || parent.addrs[i][0] == addr) {
			l.addrs[i] = parent.addrs[i]
			l.changed[i] = parent.stamps[i] != b.stamp
		} else {
			l.addrs[i] = nil
			need += k
			if parent != nil {
				l.changed[i] = true
			}
		}
		addr += uint64(k) * InstrBytes
		n += k
	}
	l.total = n
	l.end = addr
	if parent != nil {
		l.rows = p.layRows.Take(need)[:0]
	} else {
		l.rows = make([]uint64, 0, need)
	}
	addr = base
	for i, b := range p.Blocks {
		addr = b.alignUp(addr)
		k := len(b.Instrs)
		if l.addrs[i] == nil {
			start := len(l.rows)
			for j := 0; j < k; j++ {
				l.rows = append(l.rows, addr+uint64(j)*InstrBytes)
			}
			l.addrs[i] = l.rows[start:len(l.rows):len(l.rows)]
		}
		addr += uint64(k) * InstrBytes
	}
	return l
}

// alignUp returns the first address at or after addr where b may start.
func (b *Block) alignUp(addr uint64) uint64 {
	if b.Align > 0 {
		if rem := addr % uint64(b.Align); rem != 0 {
			addr += uint64(b.Align) - rem
		}
	}
	return addr
}

// ID names the layout. Two layouts never share an ID.
func (l *Layout) ID() uint64 { return l.id }

// DerivedFrom reports whether l was derived (by Derive) from the layout
// whose ID is id, so Changed describes the difference to it.
func (l *Layout) DerivedFrom(id uint64) bool { return l.parent != 0 && l.parent == id }

// Changed reports whether block b's addresses or instructions differ from
// the layout l was derived from. Every block counts as changed in a layout
// computed by NewLayout.
func (l *Layout) Changed(b int) bool { return l.changed == nil || l.changed[b] }

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
