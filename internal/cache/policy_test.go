package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolicyParse(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", LRU}, {"lru", LRU}, {"fifo", FIFO}, {"plru", PLRU}, {"tree-plru", PLRU},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("ParsePolicy(\"random\") should fail")
	}
	for _, p := range Policies() {
		rt, err := ParsePolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip of %v broke: got %v, %v", p, rt, err)
		}
	}
	if Policy(9).String() != "policy(9)" {
		t.Errorf("unknown policy String() = %q", Policy(9))
	}
}

func TestPolicyConfigValidation(t *testing.T) {
	// 240 / (3·16) = 5 sets: a perfectly usable geometry, except that
	// tree-PLRU needs a power-of-two associativity.
	geo := Config{Assoc: 3, BlockBytes: 16, CapacityBytes: 240}
	for _, p := range []Policy{LRU, FIFO} {
		c := geo
		c.Policy = p
		if err := c.Valid(); err != nil {
			t.Errorf("%v should be valid: %v", c, err)
		}
	}
	c := geo
	c.Policy = PLRU
	if err := c.Valid(); err == nil {
		t.Errorf("%v should reject plru with assoc 3", c)
	}
	c = Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64, Policy: Policy(9)}
	if err := c.Valid(); err == nil {
		t.Errorf("%v should reject an unknown policy", c)
	}
	// Every Table 2 associativity is a power of two, so the whole matrix
	// supports every policy.
	for i, tc := range Table2() {
		for _, p := range Policies() {
			tc.Policy = p
			if err := tc.Valid(); err != nil {
				t.Errorf("%s with %s: %v", ConfigID(i), p, err)
			}
		}
	}
}

func TestPolicyConfigString(t *testing.T) {
	c := Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 256}
	if got := c.String(); got != "(2,16,256)" {
		t.Errorf("LRU config renders as %q; the policy suffix must stay absent", got)
	}
	c.Policy = FIFO
	if got := c.String(); got != "(2,16,256,fifo)" {
		t.Errorf("FIFO config renders as %q", got)
	}
}

// The geometry accessors must not divide by zero on unvalidated configs:
// entry points check Valid, but error paths may still render or hash a
// half-built Config.
func TestPolicyDegenerateGeometry(t *testing.T) {
	for _, c := range []Config{{}, {BlockBytes: 16}, {Assoc: 2}, {Assoc: -1, BlockBytes: 16}} {
		if n := c.NumSets(); n != 0 {
			t.Errorf("NumSets(%+v) = %d, want 0", c, n)
		}
		if n := c.SetOf(5); n != 0 {
			t.Errorf("SetOf(%+v) = %d, want 0", c, n)
		}
	}
}

// Property: the FIFO implementation agrees with a straightforward reference
// model (per-set queue, newest first; a hit does not reorder).
func TestPolicyFIFOAgainstReference(t *testing.T) {
	cfg := Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 256, Policy: FIFO} // 4 sets
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(cfg)
		ref := map[int][]uint64{}
		for i := 0; i < 300; i++ {
			blk := uint64(rng.Intn(40))
			si := cfg.SetOf(blk)
			set := ref[si]
			wantHit := false
			for _, b := range set {
				if b == blk {
					wantHit = true
					break
				}
			}
			wantEvict := InvalidBlock
			if !wantHit {
				if len(set) == cfg.Assoc {
					wantEvict = set[len(set)-1]
					set = set[:len(set)-1]
				}
				set = append([]uint64{blk}, set...)
				ref[si] = set
			}

			hit, evicted := s.Access(blk)
			if hit != wantHit || evicted != wantEvict {
				return false
			}
			got := s.Set(si)
			if len(got) != len(set) {
				return false
			}
			for j := range got {
				if got[j] != set[j] {
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

// The defining FIFO trait: a hit does not refresh a block's position, so the
// oldest insertion is evicted even when it was just referenced.
func TestPolicyFIFOHitDoesNotRefresh(t *testing.T) {
	s := NewState(Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 32, Policy: FIFO}) // 1 set
	s.Access(1)
	s.Access(2)
	if hit, _ := s.Access(1); !hit {
		t.Fatal("block 1 should still be resident")
	}
	if _, evicted := s.Access(3); evicted != 1 {
		t.Fatalf("FIFO evicted %d; want the oldest insertion 1 despite its recent hit", evicted)
	}
}

// For one and two ways, tree-PLRU coincides exactly with true LRU.
func TestPolicyPLRUAssoc2MatchesLRU(t *testing.T) {
	lruCfg := Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 64}
	plruCfg := lruCfg
	plruCfg.Policy = PLRU
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, p := NewState(lruCfg), NewState(plruCfg)
		for i := 0; i < 200; i++ {
			blk := uint64(rng.Intn(12))
			lh, le := l.Access(blk)
			ph, pe := p.Access(blk)
			if lh != ph || le != pe {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Scripted tree-PLRU trace for four ways (one set). After filling a,b,c,d
// the bit path points at a; re-touching a moves the victim to c — the
// sequence where PLRU visibly diverges from LRU (which would evict b).
func TestPolicyPLRUKnownTrace(t *testing.T) {
	s := NewState(Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 64, Policy: PLRU})
	for _, blk := range []uint64{0, 1, 2, 3} {
		if hit, ev := s.Access(blk); hit || ev != InvalidBlock {
			t.Fatalf("cold fill of %d: hit=%v evicted=%d", blk, hit, ev)
		}
	}
	if w := s.WouldEvict(4); w != 0 {
		t.Fatalf("victim after a,b,c,d is way holding 0; WouldEvict = %d", w)
	}
	if hit, _ := s.Access(0); !hit {
		t.Fatal("0 should hit")
	}
	if _, evicted := s.Access(4); evicted != 2 {
		t.Fatalf("after touching 0, PLRU evicts 2 (LRU would evict 1); got %d", evicted)
	}
	if _, evicted := s.Access(5); evicted != 1 {
		t.Fatalf("next victim is 1; got %d", evicted)
	}
}

// Properties every policy shares: WouldEvict predicts Access without
// mutating, re-access hits, and an evicted block is gone.
func TestPolicyAccessInvariants(t *testing.T) {
	for _, pol := range Policies() {
		cfg := Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 256, Policy: pol}
		rng := rand.New(rand.NewSource(11))
		s := NewState(cfg)
		for i := 0; i < 500; i++ {
			blk := uint64(rng.Intn(48))
			predicted := s.WouldEvict(blk)
			hit, evicted := s.Access(blk)
			if hit && predicted != InvalidBlock {
				t.Fatalf("%s: WouldEvict(%d) = %d before a hit", pol, blk, predicted)
			}
			if !hit && evicted != predicted {
				t.Fatalf("%s: WouldEvict(%d) = %d but Access evicted %d", pol, blk, predicted, evicted)
			}
			if !s.Contains(blk) {
				t.Fatalf("%s: %d absent right after its access", pol, blk)
			}
			if evicted != InvalidBlock && s.Contains(evicted) {
				t.Fatalf("%s: evicted block %d still resident", pol, evicted)
			}
			if h, _ := s.Access(blk); !h {
				t.Fatalf("%s: immediate re-access of %d missed", pol, blk)
			}
		}
	}
}

// Clone/CopyFrom/Equal/Reset must carry the PLRU tree bits: two states with
// identical resident blocks but different bits are different states.
func TestPolicyPLRUCloneCarriesTreeBits(t *testing.T) {
	cfg := Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 64, Policy: PLRU}
	s := NewState(cfg)
	for _, blk := range []uint64{0, 1, 2, 3} {
		s.Access(blk)
	}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Access(0) // hit: changes only the tree bits
	if s.Equal(c) {
		t.Fatal("states with different tree bits must not compare equal")
	}
	s.CopyFrom(c)
	if !s.Equal(c) {
		t.Fatal("CopyFrom did not copy the tree bits")
	}
	s.Reset()
	if !s.Equal(NewState(cfg)) {
		t.Fatal("Reset did not restore the empty PLRU state")
	}
}

// Remove leaves a hole in the PLRU way array that the next miss refills
// without evicting anything.
func TestPolicyPLRURemoveLeavesHole(t *testing.T) {
	s := NewState(Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 64, Policy: PLRU})
	for _, blk := range []uint64{0, 1, 2, 3} {
		s.Access(blk)
	}
	s.Remove(2)
	if s.Contains(2) {
		t.Fatal("2 still resident after Remove")
	}
	if hit, evicted := s.Access(9); hit || evicted != InvalidBlock {
		t.Fatalf("the freed way should absorb the miss: hit=%v evicted=%d", hit, evicted)
	}
	for _, blk := range []uint64{0, 1, 3, 9} {
		if !s.Contains(blk) {
			t.Fatalf("%d missing after refilling the hole", blk)
		}
	}
}
