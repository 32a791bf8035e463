// Package cache models a set-associative instruction cache: the
// configuration space of the paper's Table 2 and the concrete cache states
// manipulated by both the trace simulator and the reverse prefetching
// analysis (the [MRU, LRU] states of Figure 1). Replacement is selected per
// configuration by [Policy]; the default (and the paper's machine model) is
// true LRU, with FIFO and tree-PLRU available as alternative policies.
package cache

import "fmt"

// InvalidBlock is the sentinel for an empty cache way (the paper's invalid
// block I).
const InvalidBlock = ^uint64(0)

// Config describes one instruction-cache configuration k = (a, b, c): the
// associativity, the block (line) size in bytes, and the total capacity in
// bytes, plus the replacement policy (zero value = LRU, so plain (a, b, c)
// literals keep describing the paper's machine model).
type Config struct {
	Assoc         int    // a: blocks per set
	BlockBytes    int    // b: block size in bytes
	CapacityBytes int    // c: total capacity in bytes
	Policy        Policy // replacement policy; zero value is LRU
}

// NumSets returns the number of cache sets, or 0 when the configuration is
// degenerate (zero or negative associativity or block size). Callers that
// need a usable geometry must check Valid first; NumSets merely refuses to
// divide by zero for unvalidated configs.
func (c Config) NumSets() int {
	setBytes := c.BlockBytes * c.Assoc
	if setBytes <= 0 {
		return 0
	}
	return c.CapacityBytes / setBytes
}

// SetOf maps a memory block index to its cache set. On a degenerate
// configuration (NumSets() == 0) it returns 0 instead of dividing by zero.
func (c Config) SetOf(block uint64) int {
	ns := c.NumSets()
	if ns <= 0 {
		return 0
	}
	return int(block % uint64(ns))
}

// Valid reports whether the configuration is internally consistent.
func (c Config) Valid() error {
	if c.Assoc < 1 || c.BlockBytes < 4 || c.CapacityBytes < c.BlockBytes*c.Assoc {
		return fmt.Errorf("cache: invalid configuration %+v", c)
	}
	if c.CapacityBytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: capacity %d not divisible by set size %d", c.CapacityBytes, c.BlockBytes*c.Assoc)
	}
	return c.Policy.valid(c.Assoc)
}

// String renders the configuration in the paper's (a, b, c) notation, with
// the policy appended for non-LRU configurations.
func (c Config) String() string {
	if c.Policy == LRU {
		return fmt.Sprintf("(%d,%d,%d)", c.Assoc, c.BlockBytes, c.CapacityBytes)
	}
	return fmt.Sprintf("(%d,%d,%d,%s)", c.Assoc, c.BlockBytes, c.CapacityBytes, c.Policy)
}

// Table2 returns the 36 cache configurations of the paper's Table 2, in
// k1..k36 order: capacity ascending over {256..8192}, block size over
// {16, 32}, associativity over {1, 2, 4}.
func Table2() []Config {
	var out []Config
	for _, capacity := range []int{256, 512, 1024, 2048, 4096, 8192} {
		for _, block := range []int{16, 32} {
			for _, assoc := range []int{1, 2, 4} {
				out = append(out, Config{Assoc: assoc, BlockBytes: block, CapacityBytes: capacity})
			}
		}
	}
	return out
}

// ConfigID returns the paper's label (k1..k36) for the i-th Table 2 entry.
func ConfigID(i int) string { return fmt.Sprintf("k%d", i+1) }

// State is a concrete cache state. For LRU and FIFO each set holds its
// resident blocks ordered newest first (recency order for LRU, insertion
// order for FIFO); for tree-PLRU each set is a fixed array of ways with
// InvalidBlock marking empty slots, plus the per-set tree bits. State
// implements the update function U of Definition 1 for the configured
// policy.
type State struct {
	cfg  Config
	sets [][]uint64 // sets[s][0] is the newest block (LRU/FIFO); way array (PLRU)
	plru []uint64   // per-set tree bits, heap-indexed; nil unless Policy == PLRU
}

// NewState returns an empty (all-invalid) cache state for cfg.
func NewState(cfg Config) *State {
	if err := cfg.Valid(); err != nil {
		panic(err)
	}
	s := &State{cfg: cfg, sets: make([][]uint64, cfg.NumSets())}
	if cfg.Policy == PLRU {
		s.plru = make([]uint64, cfg.NumSets())
		for i := range s.sets {
			ways := make([]uint64, cfg.Assoc)
			for w := range ways {
				ways[w] = InvalidBlock
			}
			s.sets[i] = ways
		}
	}
	return s
}

// Config returns the configuration the state was built for.
func (s *State) Config() Config { return s.cfg }

// Contains reports whether the memory block is resident.
func (s *State) Contains(block uint64) bool {
	for _, b := range s.sets[s.cfg.SetOf(block)] {
		if b == block {
			return true
		}
	}
	return false
}

// Access references the memory block, updating the set according to the
// configured replacement policy: LRU promotes a hit to MRU and evicts the
// least recently used block on a full miss; FIFO leaves hits untouched and
// evicts the oldest insertion; tree-PLRU points the tree bits away from the
// touched way and evicts along the bit path. It returns whether the access
// hit and, if a block was evicted, which one (evicted == InvalidBlock means
// nothing was displaced).
//
// Access realizes Properties 1–3 of the paper: the before/after block sets
// differ by at most the inserted block and the evicted block.
func (s *State) Access(block uint64) (hit bool, evicted uint64) {
	switch s.cfg.Policy {
	case FIFO:
		return s.fifoAccess(block)
	case PLRU:
		return s.plruAccess(block)
	}
	si := s.cfg.SetOf(block)
	set := s.sets[si]
	for i, b := range set {
		if b == block {
			// Hit: rotate to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = block
			return true, InvalidBlock
		}
	}
	// Miss: insert as MRU.
	return false, s.pushFront(si, block)
}

// Insert loads a block as if by a completed prefetch fill, updating the
// replacement state exactly like an access: under LRU the block becomes MRU
// (a redundant prefetch of a resident block promotes it); under FIFO a
// redundant fill is a no-op; under tree-PLRU the fill touches the block's
// way. It returns the evicted block or InvalidBlock.
func (s *State) Insert(block uint64) (evicted uint64) {
	_, ev := s.Access(block)
	return ev
}

// WouldEvict returns the block that an access (or fill) of the given memory
// block would displace, without mutating the state. It returns InvalidBlock
// when the access would hit, when the set still has a free way, or when the
// block is already resident.
func (s *State) WouldEvict(block uint64) uint64 {
	if s.cfg.Policy == PLRU {
		return s.plruWouldEvict(block)
	}
	si := s.cfg.SetOf(block)
	set := s.sets[si]
	for _, b := range set {
		if b == block {
			return InvalidBlock
		}
	}
	if len(set) < s.cfg.Assoc {
		return InvalidBlock
	}
	return set[len(set)-1]
}

// Remove deletes the block from its set if resident, preserving the order
// (LRU/FIFO) or way positions and tree bits (PLRU) of the remaining blocks.
func (s *State) Remove(block uint64) {
	si := s.cfg.SetOf(block)
	set := s.sets[si]
	for i, b := range set {
		if b == block {
			if s.cfg.Policy == PLRU {
				set[i] = InvalidBlock
			} else {
				s.sets[si] = append(set[:i], set[i+1:]...)
			}
			return
		}
	}
}

// Blocks returns the set of resident memory blocks (the paper's B(ĉ)).
func (s *State) Blocks() map[uint64]bool {
	out := make(map[uint64]bool)
	for _, set := range s.sets {
		for _, b := range set {
			if b != InvalidBlock {
				out[b] = true
			}
		}
	}
	return out
}

// Set returns a copy of the contents of set si: newest first for LRU and
// FIFO, way order (with InvalidBlock holes) for PLRU.
func (s *State) Set(si int) []uint64 {
	return append([]uint64(nil), s.sets[si]...)
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{cfg: s.cfg, sets: make([][]uint64, len(s.sets))}
	for i, set := range s.sets {
		if len(set) > 0 {
			c.sets[i] = append([]uint64(nil), set...)
		}
	}
	if s.plru != nil {
		c.plru = append([]uint64(nil), s.plru...)
	}
	return c
}

// CopyFrom makes s an exact copy of o (which must share s's configuration),
// reusing s's per-set storage so repeated copies do not allocate.
func (s *State) CopyFrom(o *State) {
	for i := range s.sets {
		s.sets[i] = append(s.sets[i][:0], o.sets[i]...)
	}
	copy(s.plru, o.plru)
}

// Equal reports whether two states hold the same blocks in the same order
// for every set (and, for PLRU, the same tree bits).
func (s *State) Equal(o *State) bool {
	if s.cfg != o.cfg {
		return false
	}
	for i := range s.sets {
		if len(s.sets[i]) != len(o.sets[i]) {
			return false
		}
		for j := range s.sets[i] {
			if s.sets[i][j] != o.sets[i][j] {
				return false
			}
		}
		if s.plru != nil && s.plru[i] != o.plru[i] {
			return false
		}
	}
	return true
}

// Reset empties every set.
func (s *State) Reset() {
	for i := range s.sets {
		if s.cfg.Policy == PLRU {
			for w := range s.sets[i] {
				s.sets[i][w] = InvalidBlock
			}
		} else {
			s.sets[i] = s.sets[i][:0]
		}
	}
	for i := range s.plru {
		s.plru[i] = 0
	}
}
