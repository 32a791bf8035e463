package energy

import (
	"testing"
	"testing/quick"

	"ucp/internal/cache"
)

func TestModelMonotonicities(t *testing.T) {
	// Dynamic read energy grows with capacity, associativity and block
	// size; leakage grows with capacity.
	base := NewModelHier(cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}), Tech45)

	bigger := NewModelHier(cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 4096}), Tech45)
	if bigger.CacheReadPJ <= base.CacheReadPJ {
		t.Error("read energy must grow with capacity")
	}
	if bigger.LeakageMW <= base.LeakageMW {
		t.Error("leakage must grow with capacity")
	}

	wider := NewModelHier(cache.Hier1(cache.Config{Assoc: 4, BlockBytes: 16, CapacityBytes: 1024}), Tech45)
	if wider.CacheReadPJ <= base.CacheReadPJ {
		t.Error("read energy must grow with associativity")
	}

	fatter := NewModelHier(cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 32, CapacityBytes: 1024}), Tech45)
	if fatter.CacheReadPJ <= base.CacheReadPJ {
		t.Error("read energy must grow with block size")
	}
	if fatter.DRAMAccessPJ <= base.DRAMAccessPJ {
		t.Error("DRAM transfer energy must grow with block size")
	}
}

func TestTechnologyScaling(t *testing.T) {
	cfg := cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 2048}
	m45 := NewModelHier(cache.Hier1(cfg), Tech45)
	m32 := NewModelHier(cache.Hier1(cfg), Tech32)
	if m32.CacheReadPJ >= m45.CacheReadPJ {
		t.Error("32nm dynamic energy must shrink vs 45nm")
	}
	if m32.LeakageMW <= m45.LeakageMW {
		t.Error("32nm leakage must grow vs 45nm")
	}
	// The share of the *cache's* leakage in the total must be larger at
	// 32 nm — the trend Section 2.3 builds on (the off-chip DRAM module
	// does not scale with the processor node).
	acc := Account{CacheReads: 100000, CacheFills: 3000, DRAMReads: 3000, Cycles: 120000}
	b45 := m45.Energy(acc)
	b32 := m32.Energy(acc)
	cacheStatic45 := m45.LeakageMW * float64(acc.Cycles) * m45.CycleNS
	cacheStatic32 := m32.LeakageMW * float64(acc.Cycles) * m32.CycleNS
	share45 := cacheStatic45 / b45.TotalPJ()
	share32 := cacheStatic32 / b32.TotalPJ()
	if share32 <= share45 {
		t.Errorf("cache leakage share must grow when scaling down: 45nm %.4f vs 32nm %.4f", share45, share32)
	}
}

func TestDRAMDwarfsCacheAccess(t *testing.T) {
	for _, cfg := range cache.Table2() {
		for _, tech := range Techs() {
			m := NewModelHier(cache.Hier1(cfg), tech)
			if m.DRAMAccessPJ < 10*m.CacheReadPJ {
				t.Fatalf("%v/%v: DRAM access (%.0fpJ) should dwarf a cache read (%.1fpJ)",
					cfg, tech, m.DRAMAccessPJ, m.CacheReadPJ)
			}
			if m.MissPenalty <= m.HitCycles {
				t.Fatalf("%v/%v: miss penalty must exceed hit time", cfg, tech)
			}
			if m.Lambda < m.MissPenalty {
				t.Fatalf("%v/%v: a fill cannot land faster than a miss", cfg, tech)
			}
		}
	}
}

func TestEnergyLinearInActivity(t *testing.T) {
	m := NewModelHier(cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}), Tech45)
	f := func(reads, fills, dram, cycles uint16) bool {
		a := Account{
			CacheReads: int64(reads), CacheFills: int64(fills),
			DRAMReads: int64(dram), Cycles: int64(cycles),
		}
		double := Account{
			CacheReads: 2 * a.CacheReads, CacheFills: 2 * a.CacheFills,
			DRAMReads: 2 * a.DRAMReads, Cycles: 2 * a.Cycles,
		}
		e1 := m.Energy(a).TotalPJ()
		e2 := m.Energy(double).TotalPJ()
		return e2 > e1*1.999 && e2 < e1*2.001 || e1 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWCETParamsValid(t *testing.T) {
	for _, cfg := range cache.Table2() {
		for _, tech := range Techs() {
			if err := NewModelHier(cache.Hier1(cfg), tech).WCETParams().Valid(); err != nil {
				t.Fatalf("%v/%v: %v", cfg, tech, err)
			}
		}
	}
}

func TestShorterRunSavesStaticEnergy(t *testing.T) {
	m := NewModelHier(cache.Hier1(cache.Config{Assoc: 2, BlockBytes: 16, CapacityBytes: 1024}), Tech32)
	slow := m.Energy(Account{CacheReads: 1000, DRAMReads: 100, Cycles: 50000})
	fast := m.Energy(Account{CacheReads: 1000, DRAMReads: 100, Cycles: 40000})
	if fast.TotalPJ() >= slow.TotalPJ() {
		t.Error("a shorter run with identical activity must cost less energy")
	}
}

func TestStringers(t *testing.T) {
	if Tech45.String() != "45nm" || Tech32.String() != "32nm" {
		t.Error("tech names")
	}
	m := NewModelHier(cache.Hier1(cache.Config{Assoc: 1, BlockBytes: 16, CapacityBytes: 256}), Tech45)
	if m.String() == "" {
		t.Error("model string empty")
	}
}
