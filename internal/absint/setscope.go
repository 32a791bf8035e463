package absint

import "math/bits"

// This file scopes a re-analysis to the cache sets an edit reaches.
//
// Under LRU, FIFO and tree-PLRU the cache sets evolve independently: an
// access or a fill changes only its own set's must, may and young
// persistence entries and the saturated bits of that set's blocks, a join
// is a join per set, and a verdict reads only the fetched block's set. So
// the fixpoint decomposes per set. Project a transfer row onto one set:
// the set's events in row order, an access event per fetch of one of its
// blocks (block and CAC gate; a gated-off fetch counts too, since it is
// still classified) and a fill event per prefetch whose target lies in it
// (target, fills, eff). Where every block's row projects onto a set as the
// seed's row did, every per-set transfer of that set is the seed's, and so
// is its per-set fixpoint, which the seed's exit states already hold
// (DESIGN.md §8). A re-analysis therefore re-solves only the sets some
// row-dirty block projects differently; the verdicts of fetches on the
// other sets are the seed's, read at the same position of the set's
// projection.

// setMask is the set of cache sets a re-analysis re-solves.
type setMask struct {
	on   []bool  // on[si]: set si is re-solved
	list []int32 // the re-solved sets in ascending order
	// sat[w%len(sat)] selects the bits of saturated-bitset word w whose
	// blocks lie in re-solved sets. Bit j of word w numbers block
	// satLo+64w+j, so the selection repeats every len(sat) words.
	sat []uint64
}

// satEqual compares two saturated bitsets on the masked bits, reading
// missing trailing words as zero.
func (m *setMask) satEqual(a, b []uint64) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range a {
		var v uint64
		if i < len(b) {
			v = b[i]
		}
		if (w^v)&m.sat[i%len(m.sat)] != 0 {
			return false
		}
	}
	return true
}

// overlay replaces the sets of m in s, their saturated bits included, by
// src's. Without a may component both may spans are empty already.
func (s *State) overlay(src *State, m *setMask) {
	for _, si := range m.list {
		k := nComp * int(si)
		s.nMust += s.store(k+cMust, src.view(k+cMust))
		if !s.noAM {
			s.nMay += s.store(k+cMay, src.view(k+cMay))
		}
		s.nPers += s.store(k+cPers, src.view(k+cPers))
	}
	for len(s.sat) < len(src.sat) {
		s.sat = append(s.sat, 0)
	}
	ns := 0
	for i, w := range s.sat {
		var v uint64
		if i < len(src.sat) {
			v = src.sat[i]
		}
		p := m.sat[i%len(m.sat)]
		w = w&^p | v&p
		s.sat[i] = w
		ns += bits.OnesCount64(w)
	}
	s.nSat = int32(ns)
	s.hashOK = false
}

// projection links the events of a transfer row per cache set: event 2i is
// the fetch of instruction i and event 2i+1 its prefetch fill; head[si] is
// the first event on set si and next[e] the event after e on e's set (-1
// ends a list). Heads of sets the row does not touch stay -1 between uses.
type projection struct{ head, next []int32 }

// link threads row's events; st supplies the set geometry.
func (p *projection) link(row []opRec, st *State) {
	if len(p.head) != int(st.nsets) {
		p.head = make([]int32, st.nsets)
		for i := range p.head {
			p.head[i] = -1
		}
	}
	if cap(p.next) < 2*len(row) {
		p.next = make([]int32, 2*len(row))
	}
	p.next = p.next[:2*len(row)]
	for i := len(row) - 1; i >= 0; i-- {
		if row[i].pft {
			p.push(st.setOf(row[i].tgt), int32(2*i+1))
		}
		p.push(st.setOf(row[i].acc), int32(2*i))
	}
}

func (p *projection) push(si int, e int32) {
	p.next[e] = p.head[si]
	p.head[si] = e
}

// unlink resets the heads that link set for row.
func (p *projection) unlink(row []opRec, st *State) {
	for _, op := range row {
		p.head[st.setOf(op.acc)] = -1
		if op.pft {
			p.head[st.setOf(op.tgt)] = -1
		}
	}
}

// eventSet returns the set of event e of row.
func eventSet(row []opRec, e int32, st *State) int {
	if e&1 == 0 {
		return st.setOf(row[e>>1].acc)
	}
	return st.setOf(row[e>>1].tgt)
}

// sameEvent compares event ex of row x with event ey of row y.
func sameEvent(x []opRec, ex int32, y []opRec, ey int32) bool {
	if ex&1 != ey&1 {
		return false
	}
	a, b := x[ex>>1], y[ey>>1]
	if ex&1 == 0 {
		return a.acc == b.acc && a.cac == b.cac
	}
	return a.tgt == b.tgt && a.fills == b.fills && a.eff == b.eff
}

// sameOn reports whether rows ro and rn, linked into po and pn, project
// onto set si alike.
func sameOn(po, pn *projection, ro, rn []opRec, si int) bool {
	eo, en := po.head[si], pn.head[si]
	for eo >= 0 && en >= 0 {
		if !sameEvent(ro, eo, rn, en) {
			return false
		}
		eo, en = po.next[eo], pn.next[en]
	}
	return eo < 0 && en < 0
}

// scopeSets returns the mask of a re-analysis whose rows are ops, seeded
// from a result whose rows were prevOps: the sets onto which some row-dirty
// block projects differently from its seeded row. It returns nil, for the
// whole-state path, when that is more than half the sets. A masked transfer
// copies the seed's exit state and overlays every masked set, so it gains
// less the larger the mask. Timed on both paths, half was the cheapest
// single cutoff for BenchmarkFigure3's L1 re-analyses and within 1 % of
// the cheapest for BenchmarkHierarchyFrontier's; leaving the mask on up to
// a full mask cost 4 to 6 % more (DESIGN.md §8).
func (sc *scratch) scopeSets(prevOps, ops [][]opRec, rowDirty []bool) *setMask {
	st := sc.empty
	nsets := int(st.nsets)
	m := &sc.mask
	m.on = flags(&m.on, nsets)
	po, pn := &sc.prjOld, &sc.prjNew
	n := 0
	for id, d := range rowDirty {
		if !d {
			continue
		}
		ro, rn := prevOps[id], ops[id]
		po.link(ro, st)
		pn.link(rn, st)
		// A set the new row touches is compared at its first event there; a
		// set only the old row touches lost its events.
		for e := int32(0); e < int32(2*len(rn)); e++ {
			if e&1 == 1 && !rn[e>>1].pft {
				continue
			}
			if si := eventSet(rn, e, st); !m.on[si] && pn.head[si] == e && !sameOn(po, pn, ro, rn, si) {
				m.on[si] = true
				n++
			}
		}
		for e := int32(0); e < int32(2*len(ro)); e++ {
			if e&1 == 1 && !ro[e>>1].pft {
				continue
			}
			if si := eventSet(ro, e, st); !m.on[si] && pn.head[si] < 0 {
				m.on[si] = true
				n++
			}
		}
		po.unlink(ro, st)
		pn.unlink(rn, st)
		if 2*n > nsets {
			return nil
		}
	}
	m.list = m.list[:0]
	for si, on := range m.on {
		if on {
			m.list = append(m.list, int32(si))
		}
	}
	// 64·period bits span a whole number of set cycles.
	period := nsets / min(nsets&-nsets, 64)
	m.sat = m.sat[:0]
	for w := 0; w < period; w++ {
		var word uint64
		for j := 0; j < 64; j++ {
			if m.on[st.setOf(st.satLo+uint64(64*w+j))] {
				word |= 1 << j
			}
		}
		m.sat = append(m.sat, word)
	}
	return m
}

// fillVerdicts gives the fetches of row on sets outside m the verdicts the
// seed recorded for them in prevCls, its row prevRow: at the same index when
// the row is the seed's (same), otherwise at the same position of the set's
// projection, where the seed's row has a fetch too, since the two rows
// project onto every set outside m alike.
func (sc *scratch) fillVerdicts(m *setMask, cls []Classification, row, prevRow []opRec, prevCls []Classification, same bool) {
	st := sc.empty
	if same {
		for i, op := range row {
			if !m.on[st.setOf(op.acc)] {
				cls[i] = prevCls[i]
			}
		}
		return
	}
	clean := false
	for _, op := range row {
		if !m.on[st.setOf(op.acc)] {
			clean = true
			break
		}
	}
	if !clean {
		return // every fetch was classified in the fixpoint
	}
	po, pn := &sc.prjOld, &sc.prjNew
	po.link(prevRow, st)
	pn.link(row, st)
	for e := int32(0); e < int32(2*len(row)); e++ {
		if e&1 == 1 && !row[e>>1].pft {
			continue
		}
		si := eventSet(row, e, st)
		if m.on[si] || pn.head[si] != e {
			continue
		}
		for eo, en := po.head[si], e; en >= 0; eo, en = po.next[eo], pn.next[en] {
			if en&1 == 0 {
				cls[en>>1] = prevCls[eo>>1]
			}
		}
	}
	po.unlink(prevRow, st)
	pn.unlink(row, st)
}
