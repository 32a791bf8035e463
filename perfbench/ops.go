package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ucp/internal/cache"
	"ucp/internal/malardalen"
)

// A cell is one use case of the analysis: a program, a Table 2
// configuration (by index), and whether the fixed L2 backs it.
type cell struct {
	Program string
	Config  int
	L2      bool
}

func (c cell) String() string {
	s := fmt.Sprintf("%s/%s", c.Program, cache.ConfigID(c.Config))
	if c.L2 {
		s += "+l2"
	}
	return s
}

// A request is one /v1/analyze call of the serve-mix client. Repeat marks a
// request for a cell an earlier request already analyzed, so the service
// must answer it from its result cache.
type request struct {
	Cell   cell
	Repeat bool
}

// l2Config is the second level hier-sweep puts behind every L1: 8 KiB,
// 4-way, 32 B blocks, LRU. It is valid behind every Table 2 configuration.
var l2Config = cache.Config{Assoc: 4, BlockBytes: 32, CapacityBytes: 8192}

const (
	bands      = 6 // Table 2 capacities 256..8192 B
	geometries = 6 // block size {16, 32} × associativity {1, 2, 4}
	// sweepGeometry is the 4-way, 16 B geometry: k3, k9, ..., k33.
	sweepGeometry = 2
	// hitsPerCold is the number of cache-hit repeats the serve-mix client
	// sends for every cold request, so a quarter of all requests are cold.
	// hitLag bounds how many cold requests later a repeat is sent. Both are
	// assumptions, not measured traffic: the repository records no usage
	// pattern of the service (README.md, "The serve-mix traffic is an
	// assumption").
	hitsPerCold = 3
	hitLag      = 24
)

// Program sets. fig3Programs is the shape-diverse set every earlier bench
// file tracked; hier-sweep drops statemate, whose L2 cells alone take over a
// minute. serve-mix draws from every program except the two whose single
// cold analysis takes seconds.
var (
	fig3Programs = []string{"adpcm", "compress", "crc", "fdct", "statemate"}
	hierPrograms = []string{"adpcm", "compress", "crc", "fdct"}
	serveSkip    = map[string]bool{"nsichneu": true, "statemate": true}
)

// configIndex is the Table 2 index of capacity band b (0 = 256 B) and
// geometry g (block size major, associativity minor).
func configIndex(b, g int) int { return b*geometries + g }

// sweepCells returns one cell per (program, capacity band) at the 4-way,
// 16 B geometry, in an order drawn from seed. The cell set is the same for
// every seed: cell costs span 1000× and the largest-capacity cells of
// statemate alone vary 5× with the geometry, so a seeded configuration draw
// would move throughput by a quarter from seed to seed (see README.md).
func sweepCells(programs []string, l2 bool, seed int64) []cell {
	var out []cell
	for _, p := range programs {
		for b := 0; b < bands; b++ {
			out = append(out, cell{Program: p, Config: configIndex(b, sweepGeometry), L2: l2})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveCells returns the serve-mix cold set: every program outside
// serveSkip once per capacity band, its geometry rotating with the program's
// alphabetical position so all 36 configurations occur. The set is fixed;
// only the request order depends on the seed.
func serveCells() []cell {
	names := malardalen.Names()
	sort.Strings(names)
	var out []cell
	i := 0
	for _, p := range names {
		if serveSkip[p] {
			continue
		}
		for b := 0; b < bands; b++ {
			out = append(out, cell{Program: p, Config: configIndex(b, (i+b)%geometries)})
		}
		i++
	}
	return out
}

// serveRequests builds the serve-mix request sequence for seed: the cold
// cells in a seeded order, each followed within hitLag cold requests by
// exactly hitsPerCold repeats of itself at seeded positions. The hit/miss
// split and the multiset of repeated cells are the same for every seed.
func serveRequests(seed int64) []request {
	cold := serveCells()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	type keyed struct {
		key float64
		req request
	}
	var all []keyed
	for i, c := range cold {
		all = append(all, keyed{float64(i), request{Cell: c}})
		for k := 0; k < hitsPerCold; k++ {
			// Strictly after the cold request: keys of later cold
			// requests are whole numbers, so a repeat never precedes its
			// own cold request.
			lag := 0.5 + rng.Float64()*hitLag
			all = append(all, keyed{float64(i) + lag, request{Cell: c, Repeat: true}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]request, len(all))
	for i, k := range all {
		out[i] = k.req
	}
	return out
}

// probeRequests is the result-cache probe the sweeps run before their
// cells: one cold request for a small cell, then repeats of it. The sweeps
// use no cache, so the probe only gives hit_p50_ms and hit_p95_ms a value
// on them.
func probeRequests() []request {
	const probeHits = 8000
	c := cell{Program: "crc", Config: configIndex(bands-1, sweepGeometry)}
	out := []request{{Cell: c}}
	for i := 0; i < probeHits; i++ {
		out = append(out, request{Cell: c, Repeat: true})
	}
	return out
}
