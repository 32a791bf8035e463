// Package reuse holds the one-buffer spares through which a rolled-back
// re-analysis gives what it allocated back to the analysis chain that made
// it, and the test switch that poisons every buffer given back.
//
// A spare belongs to one chain (its absint scratch, its WCET solve plan or
// its program), and a chain is used by one goroutine at a time, so a spare
// needs no locking. It holds at most one buffer: a rolled-back result gives
// back one buffer of each kind and the chain's next re-analysis takes one,
// so nothing builds up over a chain.
package reuse

import "sync/atomic"

// poisoned counts the callers of Poison that have not restored it yet.
var poisoned atomic.Int32

// Poison makes every Fill, and so every Put, overwrite its buffer up to
// the buffer's capacity with the sentinel it is given, until the returned
// function is called. Code that reads a buffer after giving it back then
// reads sentinels, which a differential against a from-scratch analysis
// catches. It is for tests; with it off, Fill costs one atomic load.
func Poison() (restore func()) {
	poisoned.Add(1)
	return func() { poisoned.Add(-1) }
}

// Fill overwrites s up to its capacity with bad while Poison is on, and
// does nothing otherwise.
func Fill[T any](s []T, bad T) {
	if poisoned.Load() == 0 {
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = bad
	}
}

// Slot keeps at most one spare buffer. The zero value is an empty slot.
type Slot[T any] struct{ spare []T }

// Take returns n zeroed elements: the spare's when it has room for them, a
// new slice otherwise. Either way the slot is empty afterwards.
func (s *Slot[T]) Take(n int) []T {
	b := s.spare
	s.spare = nil
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Put keeps b as the spare, in place of any spare the slot held; b must
// not be used by its giver afterwards. Under Poison it is first filled
// with bad. An empty-capacity b leaves the slot as it is.
func (s *Slot[T]) Put(b []T, bad T) {
	if cap(b) == 0 {
		return
	}
	Fill(b, bad)
	s.spare = b
}
