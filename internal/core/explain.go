package core

import "ucp/internal/isa"

// decisionLog accumulates the explain report. Decisions are keyed by
// candidateKey so each distinct candidate appears once even though the
// reverse sweep re-discovers the same replacement events every pass; a
// later decision overwrites an earlier one — the program has changed, so
// the newest verdict is the binding one — except that a committed
// insertion is never downgraded by a later screen rejection (after the
// insertion the same replacement event screens as "already-hit" or
// "duplicate", which describes the fix, not a failure).
//
// Candidate keys use original-program coordinates, which drift as
// insertions mutate the program, so two commitments in different passes
// can collide on one key while materializing two distinct prefetch
// instructions. A second insertion therefore appends a fresh decision
// rather than overwriting: inserted decisions stay 1:1 with committed
// prefetch instructions, which is what reconcilePruned counts against.
type decisionLog struct {
	idx  map[candidateKey]int
	list []Decision
}

func newDecisionLog() *decisionLog {
	return &decisionLog{idx: map[candidateKey]int{}}
}

// record stores d for key, applying the overwrite rules above, and returns
// the index the decision landed at.
func (l *decisionLog) record(key candidateKey, d Decision) int {
	if i, ok := l.idx[key]; ok {
		if l.list[i].Inserted {
			if !d.Inserted {
				return i
			}
			l.idx[key] = len(l.list)
			l.list = append(l.list, d)
			return len(l.list) - 1
		}
		l.list[i] = d
		return i
	}
	l.idx[key] = len(l.list)
	l.list = append(l.list, d)
	return len(l.list) - 1
}

// decRef pins a committed decision to the prefetch instruction it
// materialized, by current program coordinates. validate moves the
// coordinates through every later committed edit (the isa.Edit shift rule
// the isa layer applies to prefetch targets), so the pruning pass flips
// exactly the decisions whose instructions it deleted. Nothing weaker
// works: candidate keys and recorded targets both use coordinates frozen
// at screen time, which drift as insertions move the layout under them.
type decRef struct {
	ref isa.InstrRef
	dec int
}

// explainEdits moves the tracked decision coordinates through committed
// edits, in application order; a decision whose instruction an edit
// removed is flipped to "pruned" and no longer tracked.
func (o *optimizer) explainEdits(edits []isa.Edit) {
	for _, e := range edits {
		kept := o.decRefs[:0]
		for _, r := range o.decRefs {
			var ok bool
			if r.ref, ok = e.Shift(r.ref); ok {
				kept = append(kept, r)
				continue
			}
			d := &o.dec.list[r.dec]
			d.Inserted = false
			d.Reason = "pruned"
		}
		o.decRefs = kept
	}
}

// explainReject records a screen-stage rejection. The partially filled
// decision d carries whatever the screen had established before the
// failing check (use, gap, costs); key identity and the reason come in
// separately.
func (o *optimizer) explainReject(key candidateKey, reason string, d Decision) {
	if o.dec == nil {
		return
	}
	d.Block, d.Index, d.Target = key.block, key.index, key.target
	d.Level = key.level
	d.Lambda = o.opt.Par.Lambda
	d.Reason = reason
	o.dec.record(key, d)
}

// explainInsert records a committed insertion whose prefetch now sits at
// pos.
func (o *optimizer) explainInsert(c candidate, pos isa.InstrRef) {
	idx := o.dec.record(c.key, Decision{
		Block: c.key.block, Index: c.key.index, Target: c.key.target,
		Level: c.key.level, At: c.at, Before: c.before, Use: c.use,
		L1Class: c.l1c, L2Class: c.l2c,
		MCost: c.value, PCost: o.insertionFetchCost(c.at.Block),
		Gap: c.gap, Lambda: o.opt.Par.Lambda,
		Effective: true, Profitable: true,
		Inserted: true, Reason: "inserted",
	})
	o.decRefs = append(o.decRefs, decRef{ref: pos, dec: idx})
}

// explainValidationReject records a single-candidate validation rejection
// with the τ_w regression the re-analysis measured.
func (o *optimizer) explainValidationReject(c candidate, rcost int64) {
	if o.dec == nil {
		return
	}
	if rcost < 0 {
		rcost = 0
	}
	o.dec.record(c.key, Decision{
		Block: c.key.block, Index: c.key.index, Target: c.key.target,
		Level: c.key.level, At: c.at, Before: c.before, Use: c.use,
		L1Class: c.l1c, L2Class: c.l2c,
		MCost: c.value, PCost: o.insertionFetchCost(c.at.Block), RCost: rcost,
		Gap: c.gap, Lambda: o.opt.Par.Lambda,
		Effective: true, Profitable: true,
		Reason: "validation",
	})
}

// insertionFetchCost is the WCET-scenario fetch cost of one instruction
// added to the given original block: hit time × the block's total
// execution count across its VIVU contexts (prefetches are always fetched
// at hit time — they are resident by construction of the layout walk).
func (o *optimizer) insertionFetchCost(block int) int64 {
	var n int64
	for _, xb := range o.x.Blocks {
		if xb.Orig == block {
			n += o.res.Nw[xb.ID]
		}
	}
	return o.opt.Par.HitCycles * n
}
