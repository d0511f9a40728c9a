// Package cfg provides control-flow-graph utilities over the IR:
// predecessor maps, reverse postorder, dominator trees (Cooper–Harvey–
// Kennedy), dominance frontiers, and natural-loop detection. These feed
// the mem2reg pass and the loop-awareness of the performance model.
package cfg

import "repro/internal/ir"

// Graph caches the CFG structure of one function.
type Graph struct {
	F      *ir.Func
	Preds  map[*ir.Block][]*ir.Block
	RPO    []*ir.Block       // reverse postorder, entry first
	rpoNum map[*ir.Block]int // block -> RPO index
	IDom   map[*ir.Block]*ir.Block
	// DomChildren lists the dominator-tree children of each block, in
	// the order of F.Blocks.
	DomChildren map[*ir.Block][]*ir.Block
}

// New builds the CFG, reverse postorder, and dominator tree for f.
func New(f *ir.Func) *Graph {
	g := &Graph{
		F:           f,
		Preds:       make(map[*ir.Block][]*ir.Block),
		rpoNum:      make(map[*ir.Block]int),
		IDom:        make(map[*ir.Block]*ir.Block),
		DomChildren: make(map[*ir.Block][]*ir.Block),
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			g.Preds[s] = append(g.Preds[s], b)
		}
	}
	g.computeRPO()
	g.computeDominators()
	return g
}

func (g *Graph) computeRPO() {
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	entry := g.F.Entry()
	if entry == nil {
		return
	}
	dfs(entry)
	for i := len(post) - 1; i >= 0; i-- {
		g.rpoNum[post[i]] = len(g.RPO)
		g.RPO = append(g.RPO, post[i])
	}
}

// Reachable reports whether b is reachable from the entry.
func (g *Graph) Reachable(b *ir.Block) bool {
	_, ok := g.rpoNum[b]
	return ok
}

// computeDominators implements the Cooper–Harvey–Kennedy iterative
// algorithm ("A Simple, Fast Dominance Algorithm").
func (g *Graph) computeDominators() {
	if len(g.RPO) == 0 {
		return
	}
	entry := g.RPO[0]
	g.IDom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO[1:] {
			var newIDom *ir.Block
			for _, p := range g.Preds[b] {
				if _, ok := g.IDom[p]; !ok {
					continue // unprocessed or unreachable
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = g.intersect(p, newIDom)
				}
			}
			if newIDom == nil {
				continue
			}
			if g.IDom[b] != newIDom {
				g.IDom[b] = newIDom
				changed = true
			}
		}
	}
	// Children in block order: mem2reg renames along this tree, so the
	// order fixes the order of a join phi's incoming edges.
	for _, b := range g.F.Blocks {
		if d, ok := g.IDom[b]; ok && b != d {
			g.DomChildren[d] = append(g.DomChildren[d], b)
		}
	}
}

func (g *Graph) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for g.rpoNum[a] > g.rpoNum[b] {
			a = g.IDom[a]
		}
		for g.rpoNum[b] > g.rpoNum[a] {
			b = g.IDom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively).
func (g *Graph) Dominates(a, b *ir.Block) bool {
	if !g.Reachable(a) || !g.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := g.IDom[b]
		if next == b || next == nil {
			return false
		}
		b = next
	}
}

// DominanceFrontiers computes DF(b) for every reachable block, used by
// phi placement in mem2reg.
func (g *Graph) DominanceFrontiers() map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	for _, b := range g.RPO {
		if len(g.Preds[b]) < 2 {
			continue
		}
		for _, p := range g.Preds[b] {
			if !g.Reachable(p) {
				continue
			}
			runner := p
			for runner != g.IDom[b] {
				if !contains(df[runner], b) {
					df[runner] = append(df[runner], b)
				}
				next := g.IDom[runner]
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}

func contains(s []*ir.Block, b *ir.Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

// Loop describes one natural loop.
type Loop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
	Depth  int // nesting depth, 1 for outermost
}

// Loops finds natural loops from back-edges (edge b→h where h dominates
// b) and computes nesting depth per block. The performance model uses
// depth to weight dynamic execution counts.
func (g *Graph) Loops() []*Loop {
	var loops []*Loop
	for _, b := range g.RPO {
		for _, s := range b.Succs() {
			if g.Dominates(s, b) {
				loops = append(loops, g.naturalLoop(s, b))
			}
		}
	}
	// Merge loops sharing a header (multiple back-edges).
	byHeader := make(map[*ir.Block]*Loop)
	var merged []*Loop
	for _, l := range loops {
		if ex, ok := byHeader[l.Header]; ok {
			for b := range l.Blocks {
				ex.Blocks[b] = true
			}
			continue
		}
		byHeader[l.Header] = l
		merged = append(merged, l)
	}
	// Nesting depth: a loop nested in another iff its header is inside it.
	for _, l := range merged {
		l.Depth = 1
		for _, outer := range merged {
			if outer != l && outer.Blocks[l.Header] {
				l.Depth++
			}
		}
	}
	return merged
}

func (g *Graph) naturalLoop(header, latch *ir.Block) *Loop {
	l := &Loop{Header: header, Blocks: map[*ir.Block]bool{header: true}}
	var stack []*ir.Block
	if latch != header {
		l.Blocks[latch] = true
		stack = append(stack, latch)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Preds[b] {
			if !l.Blocks[p] && g.Reachable(p) {
				l.Blocks[p] = true
				stack = append(stack, p)
			}
		}
	}
	return l
}
