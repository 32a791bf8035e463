package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTable2MatchesPaper(t *testing.T) {
	cfgs := Table2()
	if len(cfgs) != 36 {
		t.Fatalf("Table 2 has %d entries, want 36", len(cfgs))
	}
	// Spot-check the paper's labels.
	if cfgs[0] != (Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 256}) {
		t.Fatalf("k1 = %v", cfgs[0])
	}
	if cfgs[3] != (Config{Assoc: 1, BlockBytes: 32, CapacityBytes: 256}) {
		t.Fatalf("k4 = %v", cfgs[3])
	}
	if cfgs[35] != (Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192}) {
		t.Fatalf("k36 = %v", cfgs[35])
	}
	if ConfigID(6) != "k7" {
		t.Fatalf("ConfigID(6) = %s", ConfigID(6))
	}
	for i, c := range cfgs {
		if err := c.Valid(); err != nil {
			t.Fatalf("config %d invalid: %v", i, err)
		}
	}
}

func TestNumSets(t *testing.T) {
	c := Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 512}
	if c.NumSets() != 16 {
		t.Fatalf("sets = %d, want 16", c.NumSets())
	}
	if c.SetOf(33) != 1 {
		t.Fatalf("SetOf(33) = %d", c.SetOf(33))
	}
}

func TestAccessDirectMapped(t *testing.T) {
	s := NewState(Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 64}) // 4 sets
	hit, ev := s.Access(0)
	if hit || ev != InvalidBlock {
		t.Fatalf("cold access: hit=%v ev=%v", hit, ev)
	}
	hit, _ = s.Access(0)
	if !hit {
		t.Fatal("second access must hit")
	}
	// Block 4 conflicts with block 0 (same set in a 4-set cache).
	hit, ev = s.Access(4)
	if hit || ev != 0 {
		t.Fatalf("conflicting access: hit=%v ev=%v", hit, ev)
	}
	if s.Contains(0) {
		t.Fatal("block 0 must be evicted")
	}
}

func TestLRUOrder(t *testing.T) {
	s := NewState(Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 32}) // 1 set, 2 ways
	s.Access(1)
	s.Access(2)
	if got := s.Set(0); got[0] != 2 || got[1] != 1 {
		t.Fatalf("set = %v, want [2 1]", got)
	}
	s.Access(1) // promote 1 to MRU
	if got := s.Set(0); got[0] != 1 || got[1] != 2 {
		t.Fatalf("set = %v, want [1 2]", got)
	}
	_, ev := s.Access(3)
	if ev != 2 {
		t.Fatalf("evicted %v, want 2 (the LRU)", ev)
	}
}

func TestWouldEvictDoesNotMutate(t *testing.T) {
	s := NewState(Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 32})
	s.Access(1)
	s.Access(2)
	before := s.Clone()
	if ev := s.WouldEvict(3); ev != 1 {
		t.Fatalf("WouldEvict = %v, want 1", ev)
	}
	if ev := s.WouldEvict(2); ev != InvalidBlock {
		t.Fatalf("WouldEvict(resident) = %v", ev)
	}
	if !s.Equal(before) {
		t.Fatal("WouldEvict mutated the state")
	}
}

func TestInsertRedundant(t *testing.T) {
	s := NewState(Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 32})
	s.Access(1)
	s.Access(2)
	if ev := s.Insert(2); ev != InvalidBlock {
		t.Fatalf("redundant insert evicted %v", ev)
	}
	if got := s.Set(0); got[0] != 2 {
		t.Fatal("redundant insert must promote to MRU")
	}
}

// Properties 1–3 of the paper, as a quick-check invariant: an access changes
// the resident-block set by at most {inserted} and {evicted}.
func TestAccessBlockSetDelta(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 128})
		for i := 0; i < int(n); i++ {
			before := s.Blocks()
			blk := uint64(rng.Intn(24))
			hit, ev := s.Access(blk)
			after := s.Blocks()
			if hit {
				// Property 1: hit keeps the block set unchanged.
				if len(before) != len(after) || !before[blk] {
					return false
				}
				for b := range before {
					if !after[b] {
						return false
					}
				}
				continue
			}
			// Property 2: the referenced block is now resident.
			if !after[blk] || before[blk] {
				return false
			}
			// Property 3: at most one block was replaced, and it is the
			// reported one.
			for b := range before {
				if !after[b] && b != ev {
					return false
				}
			}
			if ev != InvalidBlock && (after[ev] || !before[ev]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the set-associative implementation agrees with a straightforward
// reference model (per-set slice with explicit recency list).
func TestAgainstReferenceModel(t *testing.T) {
	type refModel struct {
		sets map[int][]uint64 // MRU first
	}
	cfg := Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 256} // 4 sets
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(cfg)
		ref := refModel{sets: map[int][]uint64{}}
		for i := 0; i < 300; i++ {
			blk := uint64(rng.Intn(40))
			si := cfg.SetOf(blk)
			// Reference update.
			set := ref.sets[si]
			found := -1
			for j, b := range set {
				if b == blk {
					found = j
					break
				}
			}
			wantHit := found >= 0
			if found >= 0 {
				set = append(set[:found], set[found+1:]...)
			} else if len(set) == cfg.Assoc {
				set = set[:len(set)-1]
			}
			ref.sets[si] = append([]uint64{blk}, set...)

			hit, _ := s.Access(blk)
			if hit != wantHit {
				return false
			}
			got := s.Set(si)
			want := ref.sets[si]
			if len(got) != len(want) {
				return false
			}
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndReset(t *testing.T) {
	s := NewState(Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64})
	s.Access(3)
	c := s.Clone()
	c.Access(7)
	if s.Contains(7) {
		t.Fatal("clone shares storage with original")
	}
	s.Reset()
	if s.Contains(3) {
		t.Fatal("reset did not clear the cache")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Assoc: 0, BlockBytes: 16, CapacityBytes: 256},
		{Assoc: 1, BlockBytes: 2, CapacityBytes: 256},
		{Assoc: 3, BlockBytes: 16, CapacityBytes: 256}, // 256/(48) not integral
		{Assoc: 2, BlockBytes: 16, CapacityBytes: 16},
	}
	for _, c := range bad {
		if err := c.Valid(); err == nil {
			t.Errorf("config %v should be invalid", c)
		}
	}
}
