// Package isatest holds the random-program generator the differential tests
// of several packages share.
package isatest

import (
	"math/rand"

	"ucp/internal/isa"
)

// RandomProgram builds a random structured program with nested loops and
// branches: up to three nodes per level and loops nested three deep. The
// same rng state always gives the same program.
func RandomProgram(rng *rand.Rand, name string) *isa.Program {
	var gen func(depth int) []isa.Node
	gen = func(depth int) []isa.Node {
		var nodes []isa.Node
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(6); {
			case k < 3 || depth >= 3:
				nodes = append(nodes, isa.Code(1+rng.Intn(18)))
			case k == 3:
				nodes = append(nodes, isa.If(rng.Float64(), gen(depth+1), gen(depth+1)))
			case k == 4:
				nodes = append(nodes, isa.IfThen(rng.Float64(), gen(depth+1)...))
			default:
				b := 1 + rng.Intn(6)
				nodes = append(nodes, isa.Loop(b, float64(rng.Intn(b))+rng.Float64()*0.5, gen(depth+1)...))
			}
		}
		return nodes
	}
	return isa.Build(name, gen(0)...)
}
