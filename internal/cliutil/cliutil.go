// Package cliutil holds the argument parsers shared by the command line
// tools and the analysis service: configuration labels (k1..k36), policy
// and technology names, L2 geometries, the resolution of one analysis cell
// to a validated cache hierarchy, and benchmark lookups with helpful error
// messages.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ucp/internal/cache"
	"ucp/internal/energy"
	"ucp/internal/isa"
	"ucp/internal/malardalen"
)

// Config resolves a Table 2 label (k1..k36) to its index.
func Config(label string) (int, error) {
	for i := range cache.Table2() {
		if cache.ConfigID(i) == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown configuration %q (want k1..k36)", label)
}

// Policy resolves a replacement-policy name ("" or "lru", "fifo", "plru").
func Policy(s string) (cache.Policy, error) {
	return cache.ParsePolicy(strings.ToLower(strings.TrimSpace(s)))
}

// L2 builds a second cache level from its geometry and policy name and
// validates it on its own. The zero geometry under the default policy is
// the single-level marker every layer treats as "no L2" and yields the
// zero Config. It is the one constructor behind the -l2-* flags, the
// ASSOCxBLOCKxCAPACITY strings, and the service's l2 blocks and queries;
// each caller prefixes the error with where the geometry came from.
func L2(assoc, block, capacity int, policy string) (cache.Config, error) {
	pol, err := Policy(policy)
	if err != nil {
		return cache.Config{}, err
	}
	cfg := cache.Config{Assoc: assoc, BlockBytes: block, CapacityBytes: capacity, Policy: pol}
	if cfg == (cache.Config{}) {
		return cfg, nil
	}
	if err := cfg.Valid(); err != nil {
		return cache.Config{}, err
	}
	return cfg, nil
}

// Cell resolves the user-facing description of one analysis cell — a
// Table 2 label, a replacement-policy name, a technology name, and an L2
// as L2 builds it — to the Table 2 index, the validated hierarchy (the
// Table 2 L1 under the policy, backed by the L2), and the technology node.
// The single-shot tools and the analysis service all resolve cells here.
func Cell(config, policy, tech string, l2 cache.Config) (int, cache.Hierarchy, energy.Tech, error) {
	ci, err := Config(config)
	if err != nil {
		return 0, cache.Hierarchy{}, 0, err
	}
	pol, err := Policy(policy)
	if err != nil {
		return 0, cache.Hierarchy{}, 0, err
	}
	tn, err := Tech(tech)
	if err != nil {
		return 0, cache.Hierarchy{}, 0, err
	}
	h := cache.Hierarchy{L1: cache.Table2()[ci], L2: l2}
	h.L1.Policy = pol
	if err := h.Valid(); err != nil {
		return 0, cache.Hierarchy{}, 0, err
	}
	return ci, h, tn, nil
}

// L2Flags registers the -l2-assoc, -l2-block-bytes, -l2-capacity-bytes and
// -l2-policy flags on fs (the default command-line set when nil) and returns
// a resolver to call after flag parsing. Leaving every flag at its default
// resolves to the zero Config; setting any geometry flag requires all three.
func L2Flags(fs *flag.FlagSet) func() (cache.Config, error) {
	if fs == nil {
		fs = flag.CommandLine
	}
	assoc := fs.Int("l2-assoc", 0, "L2 associativity (0 = no L2; the three l2 geometry flags go together)")
	block := fs.Int("l2-block-bytes", 0, "L2 block size in bytes (a multiple of the L1's)")
	capacity := fs.Int("l2-capacity-bytes", 0, "L2 capacity in bytes (at least the L1's)")
	policy := fs.String("l2-policy", "", "L2 replacement policy: lru, fifo, or plru (default lru)")
	return func() (cache.Config, error) {
		if *assoc == 0 && *block == 0 && *capacity == 0 && *policy == "" {
			return cache.Config{}, nil
		}
		if *assoc <= 0 || *block <= 0 || *capacity <= 0 {
			return cache.Config{}, fmt.Errorf("an L2 needs -l2-assoc, -l2-block-bytes and -l2-capacity-bytes together")
		}
		cfg, err := L2(*assoc, *block, *capacity, *policy)
		if err != nil {
			return cache.Config{}, fmt.Errorf("l2: %v", err)
		}
		return cfg, nil
	}
}

// L2Geometry parses an "ASSOCxBLOCKxCAPACITY[:policy]" L2 description, e.g.
// "4x32x8192" or "2x64x16384:fifo". The empty string and "none" are the
// single-level marker and yield the zero Config.
func L2Geometry(s string) (cache.Config, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return cache.Config{}, nil
	}
	geom, polName, _ := strings.Cut(s, ":")
	parts := strings.Split(geom, "x")
	if len(parts) != 3 {
		return cache.Config{}, fmt.Errorf("bad L2 geometry %q (want ASSOCxBLOCKxCAPACITY[:policy] or none)", s)
	}
	var dims [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return cache.Config{}, fmt.Errorf("bad L2 geometry %q: %q is not a positive integer", s, p)
		}
		dims[i] = n
	}
	cfg, err := L2(dims[0], dims[1], dims[2], polName)
	if err != nil {
		return cache.Config{}, fmt.Errorf("l2 %q: %v", s, err)
	}
	return cfg, nil
}

// L2GeometryList parses a comma-separated list of L2 geometries — a
// hierarchy sweep axis. "none" entries select a single-level cell, so
// "none,4x32x8192" sweeps L1-only against L1+L2.
func L2GeometryList(s string) ([]cache.Config, error) {
	if s == "" {
		return nil, nil
	}
	var out []cache.Config
	for _, part := range strings.Split(s, ",") {
		cfg, err := L2Geometry(part)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// Tech resolves a technology name.
func Tech(s string) (energy.Tech, error) {
	switch s {
	case "45nm", "45":
		return energy.Tech45, nil
	case "32nm", "32":
		return energy.Tech32, nil
	}
	return 0, fmt.Errorf("unknown technology %q (want 45nm or 32nm)", s)
}

// Benchmark resolves a benchmark by name.
func Benchmark(name string) (malardalen.Benchmark, error) {
	b, ok := malardalen.ByName(name)
	if !ok {
		return malardalen.Benchmark{}, fmt.Errorf("unknown program %q; known: %s",
			name, strings.Join(malardalen.Names(), " "))
	}
	return b, nil
}

// ConfigList parses a comma-separated list of k-labels, or "all".
func ConfigList(s string) ([]int, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if i, err := Config(part); err == nil {
			out = append(out, i)
			continue
		}
		// Also accept bare indices 1..36.
		if n, err := strconv.Atoi(part); err == nil && n >= 1 && n <= len(cache.Table2()) {
			out = append(out, n-1)
			continue
		}
		return nil, fmt.Errorf("bad configuration %q", part)
	}
	return out, nil
}

// ProgramList parses a comma-separated benchmark list, or "all".
func ProgramList(s string) ([]string, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if _, ok := malardalen.ByName(part); !ok {
			return nil, fmt.Errorf("unknown program %q", part)
		}
		out = append(out, part)
	}
	return out, nil
}

// TechList parses a comma-separated technology list, or "all".
func TechList(s string) ([]energy.Tech, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []energy.Tech
	for _, part := range strings.Split(s, ",") {
		t, err := Tech(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// LoadProgram resolves a program argument: a path to a textual program file
// (see isa.ParseAsm) when it names a readable file, otherwise a benchmark
// name from the suite.
func LoadProgram(arg string) (*isa.Program, string, error) {
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		p, err := isa.ParseAsm(f)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", arg, err)
		}
		if err := isa.Validate(p); err != nil {
			return nil, "", fmt.Errorf("%s: %w", arg, err)
		}
		return p, p.Name + " (from " + arg + ")", nil
	}
	b, err := Benchmark(arg)
	if err != nil {
		return nil, "", err
	}
	return b.Prog, b.Name + " (" + b.ID + ")", nil
}
