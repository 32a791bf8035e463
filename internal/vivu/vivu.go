// Package vivu implements the VIVU transformation ("virtual inlining,
// virtual unrolling") that classical cache-aware WCET analysis applies
// before abstract interpretation: every loop is virtually unrolled once, so
// each basic block is replicated into a *first-iteration* context and an
// *other-iterations* context per enclosing loop. The result is the paper's
// context-expanded graph: dropping its back edges yields the acyclic ACFG
// (Definition 6) on which the reverse prefetching analysis runs, while
// keeping them yields the graph on which the must/may fixpoint and the IPET
// formulation operate.
package vivu

import (
	"context"
	"fmt"
	"strings"

	"ucp/internal/isa"
	"ucp/internal/obs"
)

// Context is a VIVU context string: one letter per enclosing loop, outermost
// first; 'F' marks the first iteration, 'R' the remaining iterations.
type Context string

// Edge is one control-flow edge of the expanded graph.
type Edge struct {
	To   int  // target expanded block ID
	Back bool // true for the residual back edges of 'R' contexts
}

// Block is one expanded basic block: an original block instantiated in a
// VIVU context.
type Block struct {
	ID    int
	Orig  int // original basic-block ID
	Ctx   Context
	Succs []Edge
	Preds []int // filled by Expand; predecessor expanded block IDs
}

// LoopInstance identifies one instantiation of an original loop in a given
// enclosing context, together with the expanded header blocks the IPET bound
// constraints attach to. An instance with an R context owns a residual
// region: the R-context copy of the loop, entered and left only at
// HeadRest and closed by its back edges.
type LoopInstance struct {
	Orig      int     // index into Program.Loops
	Enclosing Context // context of the surrounding code
	Bound     int
	HeadFirst int // expanded ID of the header in the F context
	HeadRest  int // expanded ID of the header in the R context, or -1
	// Members are the expanded blocks of the residual region, nested loops
	// included, in Topo order with HeadRest first; nil when HeadRest == -1.
	Members []int
	// Parent is the index in Prog.Loops of the innermost residual region
	// enclosing this instance, or -1.
	Parent int
}

// Prog is the context-expanded program.
type Prog struct {
	Prog   *isa.Program
	Blocks []*Block
	Entry  int
	Loops  []LoopInstance
	// Topo is a topological order of Blocks ignoring back edges (the ACFG
	// order); back edges only close the R-context self-loops.
	Topo []int
	// Region[xb] is the index in Loops of the innermost residual region
	// containing expanded block xb, or -1 outside every region. Regions,
	// their Members and their Parent chains form the loop-region tree the
	// WCET solve, the fixpoint plan and the IPET formulation all share.
	Region []int

	index map[instKey]int
}

type instKey struct {
	orig int
	ctx  Context
}

// Lookup returns the expanded block ID for (original block, context), or -1.
func (x *Prog) Lookup(orig int, ctx Context) int {
	if id, ok := x.index[instKey{orig, ctx}]; ok {
		return id
	}
	return -1
}

// NRefs returns the total number of expanded references (instruction
// instances) in the expanded program.
func (x *Prog) NRefs() int {
	n := 0
	for _, b := range x.Blocks {
		n += len(x.Prog.Blocks[b.Orig].Instrs)
	}
	return n
}

// ExpandCtx is Expand with a "vivu.expand" span recording the expansion's
// size: original blocks in, expanded blocks and references out.
func ExpandCtx(ctx context.Context, p *isa.Program) (*Prog, error) {
	_, sp := obs.Start(ctx, "vivu.expand")
	x, err := Expand(p)
	if sp != nil && err == nil {
		sp.Attr("blocks", len(p.Blocks))
		sp.Attr("expanded_blocks", len(x.Blocks))
		sp.Attr("refs", x.NRefs())
	}
	sp.End()
	return x, err
}

// Expand applies the VIVU transformation to p. Loops with bound 1 get no
// R context (their back edge is infeasible); every other loop contributes a
// factor of two to the contexts of its members.
func Expand(p *isa.Program) (*Prog, error) {
	if err := isa.Validate(p); err != nil {
		return nil, fmt.Errorf("vivu: %w", err)
	}
	chains, err := loopChains(p)
	if err != nil {
		return nil, err
	}

	x := &Prog{Prog: p, index: map[instKey]int{}}

	// Instantiate every block in every feasible context of its loop chain.
	for b := range p.Blocks {
		for _, ctx := range contextsFor(p, chains[b]) {
			xb := &Block{ID: len(x.Blocks), Orig: b, Ctx: ctx}
			x.Blocks = append(x.Blocks, xb)
			x.index[instKey{b, ctx}] = xb.ID
		}
	}
	x.Entry = x.index[instKey{p.Entry, ""}]

	// Wire the expanded edges.
	for _, xb := range x.Blocks {
		u := xb.Orig
		cu := xb.Ctx
		for _, v := range p.Blocks[u].Succs {
			tc, back, feasible, err := targetContext(p, chains, u, cu, v)
			if err != nil {
				return nil, err
			}
			if !feasible {
				continue
			}
			tid, ok := x.index[instKey{v, tc}]
			if !ok {
				return nil, fmt.Errorf("vivu: missing instance of block %d in context %q", v, tc)
			}
			xb.Succs = append(xb.Succs, Edge{To: tid, Back: back})
		}
	}
	for _, xb := range x.Blocks {
		for _, e := range xb.Succs {
			x.Blocks[e.To].Preds = append(x.Blocks[e.To].Preds, xb.ID)
		}
	}

	// Register loop instances.
	for li, l := range p.Loops {
		enclosing := chains[l.Head]
		enclosing = enclosing[:len(enclosing)-1] // the chain minus the loop itself
		for _, ectx := range contextsFor(p, enclosing) {
			inst := LoopInstance{Orig: li, Enclosing: ectx, Bound: l.Bound}
			inst.HeadFirst = x.index[instKey{l.Head, ectx + "F"}]
			inst.HeadRest = -1
			if l.Bound > 1 {
				inst.HeadRest = x.index[instKey{l.Head, ectx + "R"}]
			}
			x.Loops = append(x.Loops, inst)
		}
	}

	// Topological order of the DAG obtained by dropping back edges.
	dag := make([][]int, len(x.Blocks))
	for _, xb := range x.Blocks {
		for _, e := range xb.Succs {
			if !e.Back {
				dag[xb.ID] = append(dag[xb.ID], e.To)
			}
		}
	}
	topo, err := topological(dag, x.Entry)
	if err != nil {
		return nil, fmt.Errorf("vivu: expanded graph not acyclic after removing back edges: %w", err)
	}
	x.Topo = topo
	if len(topo) != len(x.Blocks) {
		return nil, fmt.Errorf("vivu: %d of %d expanded blocks unreachable", len(x.Blocks)-len(topo), len(x.Blocks))
	}
	x.regions(chains)
	return x, nil
}

// regions records the residual-region tree. A block's innermost region is
// named by the last R of its context: the loop at that depth of its chain,
// instantiated in the context before the R. An instance's parent is the
// innermost region of its F-context header, whose context is the
// enclosing one. Every region is entered only at its R header, which
// therefore precedes the other members in Topo.
func (x *Prog) regions(chains [][]int) {
	headOf := make([]int, len(x.Blocks))
	for i := range headOf {
		headOf[i] = -1
	}
	for i, inst := range x.Loops {
		if inst.HeadRest != -1 {
			headOf[inst.HeadRest] = i
		}
	}
	x.Region = make([]int, len(x.Blocks))
	for _, xb := range x.Blocks {
		x.Region[xb.ID] = -1
		if d := strings.LastIndexByte(string(xb.Ctx), 'R'); d >= 0 {
			head := x.Prog.Loops[chains[xb.Orig][d]].Head
			x.Region[xb.ID] = headOf[x.index[instKey{head, xb.Ctx[:d+1]}]]
		}
	}
	for i := range x.Loops {
		x.Loops[i].Parent = x.Region[x.Loops[i].HeadFirst]
	}
	for _, id := range x.Topo {
		for r := x.Region[id]; r != -1; r = x.Loops[r].Parent {
			x.Loops[r].Members = append(x.Loops[r].Members, id)
		}
	}
}

// topological returns a topological order of the vertices reachable from
// entry in the graph with successor lists succs, and fails if the
// reachable subgraph contains a cycle.
func topological(succs [][]int, entry int) ([]int, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(succs))
	post := make([]int, 0, len(succs))
	var dfs func(v int) error
	dfs = func(v int) error {
		color[v] = grey
		for _, s := range succs[v] {
			switch color[s] {
			case grey:
				return fmt.Errorf("cycle through vertex %d", s)
			case white:
				if err := dfs(s); err != nil {
					return err
				}
			}
		}
		color[v] = black
		post = append(post, v)
		return nil
	}
	if err := dfs(entry); err != nil {
		return nil, err
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post, nil
}

// loopChains returns, for every block, the indexes of its enclosing loops
// from outermost to innermost, derived from the program's loop annotations.
func loopChains(p *isa.Program) ([][]int, error) {
	chains := make([][]int, len(p.Blocks))
	depth := func(li int) int {
		d := 0
		for li >= 0 {
			d++
			li = p.Loops[li].Parent
		}
		return d
	}
	// innermost[b] = deepest loop containing b, or -1
	innermost := make([]int, len(p.Blocks))
	for i := range innermost {
		innermost[i] = -1
	}
	for li := range p.Loops {
		for _, b := range p.Loops[li].Blocks {
			if innermost[b] == -1 || depth(li) > depth(innermost[b]) {
				innermost[b] = li
			}
		}
	}
	for b := range p.Blocks {
		var rev []int
		for li := innermost[b]; li >= 0; li = p.Loops[li].Parent {
			rev = append(rev, li)
		}
		chain := make([]int, len(rev))
		for i := range rev {
			chain[len(rev)-1-i] = rev[i]
		}
		chains[b] = chain
	}
	return chains, nil
}

// contextsFor enumerates the feasible contexts for a block with the given
// loop chain: {F} for bound-1 loops, {F, R} otherwise, as a cross product
// outermost-first.
func contextsFor(p *isa.Program, chain []int) []Context {
	ctxs := []Context{""}
	for _, li := range chain {
		letters := "F"
		if p.Loops[li].Bound > 1 {
			letters = "FR"
		}
		var next []Context
		for _, c := range ctxs {
			for _, l := range letters {
				next = append(next, c+Context(l))
			}
		}
		ctxs = next
	}
	return ctxs
}

// targetContext computes the context in which the successor v of block u
// (instantiated in context cu) must be instantiated, and whether the edge is
// a residual back edge or infeasible (a back edge of a bound-1 loop).
func targetContext(p *isa.Program, chains [][]int, u int, cu Context, v int) (tc Context, back, feasible bool, err error) {
	cuS := string(cu)
	chainU := chains[u]
	chainV := chains[v]

	// Back edge of the original program: v is the header of one of u's
	// enclosing loops. In the expanded graph the copy matters: from an F
	// context the edge *enters* the R region for the first time (a forward
	// edge of the ACFG), while from an R context it closes the residual
	// cycle and is a true back edge.
	for k, li := range chainU {
		if p.Loops[li].Head == v && len(chainV) == k+1 && sameChain(chainV, chainU[:k+1]) {
			if p.Loops[li].Bound == 1 {
				return "", false, false, nil // infeasible: at most one iteration
			}
			return Context(cuS[:k] + "R"), cuS[k] == 'R', true, nil
		}
	}

	switch {
	case len(chainV) == len(chainU)+1 && sameChain(chainV[:len(chainU)], chainU):
		// Loop entry: v must be the header of the entered loop.
		li := chainV[len(chainV)-1]
		if p.Loops[li].Head != v {
			return "", false, false, fmt.Errorf("vivu: edge %d->%d enters loop %d not at its header", u, v, li)
		}
		return Context(cuS) + "F", false, true, nil
	case len(chainV) <= len(chainU) && sameChain(chainV, chainU[:len(chainV)]):
		// Loop exit (possibly multi-level) or same-level flow.
		return Context(cuS[:len(chainV)]), false, true, nil
	default:
		return "", false, false, fmt.Errorf("vivu: irreducible edge %d->%d (chains %v -> %v)", u, v, chainU, chainV)
	}
}

func sameChain(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Ref identifies one expanded reference: instruction Index of the expanded
// block XB. Its address (and memory block) is that of the underlying
// original instruction, shared by all contexts.
type Ref struct {
	XB    int
	Index int
}

// InstrRef returns the original-program instruction reference underlying r.
func (x *Prog) InstrRef(r Ref) isa.InstrRef {
	return isa.InstrRef{Block: x.Blocks[r.XB].Orig, Index: r.Index}
}

// String renders a context for diagnostics.
func (c Context) String() string {
	if c == "" {
		return "·"
	}
	return strings.Join(strings.Split(string(c), ""), ".")
}
