package main

import (
	"math/bits"
	"math/rand"
	"time"
)

// The machine this benchmark was built on shares its cores with other
// tenants, and its speed drifts by a fifth or more over minutes (README.md,
// "Speed calibration"). To keep a run comparable with one made minutes
// earlier, the benchmark interleaves a fixed reference kernel with its ops
// and divides every measured time by how slow the kernel ran against its
// nominal time. The kernel is the benchmark's own code, which a change to
// the analysis cannot speed up, so a faster analysis still shows as a
// faster rescaled time.

// refNominal is the kernel's time on the machine the benchmark was
// calibrated on (2 vCPU Xeon at 2.1 GHz) in a quiet period.
const refNominal = 25 * time.Millisecond

// refRounds is the number of fixpoints one kernel call solves.
const refRounds = 28

// refGraph is the kernel's input, built once: a ring with up to two extra
// random successors per node.
var refGraph = func() [][]int32 {
	rng := rand.New(rand.NewSource(1))
	g := make([][]int32, 4096)
	for i := range g {
		g[i] = append(g[i], int32((i+1)%len(g)))
		for k := rng.Intn(3); k > 0; k-- {
			g[i] = append(g[i], int32(rng.Intn(len(g))))
		}
	}
	return g
}()

// refKernel solves refRounds worklist dataflow fixpoints over refGraph —
// the shape of work the analysis does: branchy integer code over small bit
// sets, a heap row per node, map updates and pointer chasing — and returns
// its duration. In each round node 0 starts from a nonzero set and every
// node adds bits of its own, so the sets grow around the ring until they
// stop changing, after a few visits per node. The rows are allocated in the
// first round and cleared for the next, so one call allocates about 0.5 MB,
// little beside the ops it runs between.
func refKernel() time.Duration {
	start := time.Now()
	const words = 4
	in := make([][]uint64, len(refGraph))
	seen := map[uint64]int{}
	var work []int32
	sink := 0
	for round := 0; round < refRounds; round++ {
		for _, row := range in {
			clear(row)
		}
		if in[0] == nil {
			in[0] = make([]uint64, words)
		}
		for w := range in[0] {
			in[0][w] = uint64(round+1) << uint(16*w)
		}
		work = append(work[:0], 0)
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			var out [words]uint64
			for w := range out {
				out[w] = (in[v][w] | (uint64(v)+1)*0x9e3779b97f4a7c15>>uint((w+round)%64)) &^ (uint64(v) << uint(w))
			}
			seen[(out[0]^out[words-1])&0xfff]++
			for _, s := range refGraph[v] {
				if in[s] == nil {
					in[s] = make([]uint64, words)
				}
				changed := false
				for w := range out {
					if j := in[s][w] | out[w]; j != in[s][w] {
						in[s][w], changed = j, true
					}
				}
				if changed {
					work = append(work, s)
				}
			}
		}
		for _, row := range in {
			for _, x := range row {
				sink += bits.OnesCount64(x)
			}
		}
	}
	refSink += sink + len(seen)
	return time.Since(start)
}

// refSink keeps the kernel's result live, so the compiler cannot drop the
// work.
var refSink int

// A speedMeter times the reference kernel between ops. The kernel runs in
// the same process as the ops, so it sees what they see: the other
// tenants' load and the collector's work on the second core. Sampling it
// often, between ops rather than once per run, lets the mean follow a
// drift within the run.
type speedMeter struct {
	ref   time.Duration // kernel time
	ticks int
	spent time.Duration // time in ticks, bookkeeping included
}

// tick runs the kernel once and returns the time it took; on a nil meter it
// does nothing.
func (s *speedMeter) tick() time.Duration {
	if s == nil {
		return 0
	}
	start := time.Now()
	s.ref += refKernel()
	s.ticks++
	d := time.Since(start)
	s.spent += d
	return d
}

// factor is the machine's slowdown against nominal: measured times divided
// by it read as on the nominal machine.
func (s *speedMeter) factor() float64 {
	if s == nil || s.ticks == 0 {
		return 1
	}
	return float64(s.ref) / float64(s.ticks) / float64(refNominal)
}
