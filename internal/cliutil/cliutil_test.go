package cliutil

import (
	"testing"

	"ucp/internal/cache"
	"ucp/internal/energy"
)

func TestConfig(t *testing.T) {
	i, err := Config("k1")
	if err != nil || i != 0 {
		t.Fatalf("k1 -> %d, %v", i, err)
	}
	i, err = Config("k36")
	if err != nil || i != 35 {
		t.Fatalf("k36 -> %d, %v", i, err)
	}
	if _, err := Config("k37"); err == nil {
		t.Fatal("k37 must be rejected")
	}
	if _, err := Config("bogus"); err == nil {
		t.Fatal("bogus label must be rejected")
	}
}

func TestTech(t *testing.T) {
	for _, s := range []string{"45nm", "45"} {
		if tech, err := Tech(s); err != nil || tech != energy.Tech45 {
			t.Fatalf("Tech(%q) = %v, %v", s, tech, err)
		}
	}
	if tech, err := Tech("32nm"); err != nil || tech != energy.Tech32 {
		t.Fatalf("Tech(32nm) = %v, %v", tech, err)
	}
	if _, err := Tech("28nm"); err == nil {
		t.Fatal("28nm must be rejected")
	}
}

func TestBenchmark(t *testing.T) {
	b, err := Benchmark("crc")
	if err != nil || b.Name != "crc" {
		t.Fatalf("Benchmark(crc) = %v, %v", b.Name, err)
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark must be rejected")
	}
}

func TestLists(t *testing.T) {
	if l, err := ConfigList("all"); err != nil || l != nil {
		t.Fatal("all must map to nil (no restriction)")
	}
	l, err := ConfigList("k1, k5 ,12")
	if err != nil || len(l) != 3 || l[0] != 0 || l[1] != 4 || l[2] != 11 {
		t.Fatalf("ConfigList = %v, %v", l, err)
	}
	if _, err := ConfigList("k1,zap"); err == nil {
		t.Fatal("bad config entry must be rejected")
	}
	p, err := ProgramList("crc, fdct")
	if err != nil || len(p) != 2 {
		t.Fatalf("ProgramList = %v, %v", p, err)
	}
	if _, err := ProgramList("crc,ghost"); err == nil {
		t.Fatal("bad program entry must be rejected")
	}
	ts, err := TechList("45nm,32nm")
	if err != nil || len(ts) != 2 {
		t.Fatalf("TechList = %v, %v", ts, err)
	}
	if _, err := TechList("45nm,90nm"); err == nil {
		t.Fatal("bad tech entry must be rejected")
	}
}

func TestPolicy(t *testing.T) {
	for in, want := range map[string]cache.Policy{
		"": cache.LRU, "lru": cache.LRU, " FIFO ": cache.FIFO, "Plru": cache.PLRU,
	} {
		got, err := Policy(in)
		if err != nil || got != want {
			t.Errorf("Policy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Policy("mru"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}
