package tac

// CFG is an instruction-granularity control flow graph of a TAC function.
// Node i corresponds to f.Body[i]; the entry node is 0.
type CFG struct {
	F     *Func
	Succs [][]int
	Preds [][]int
}

// BuildCFG constructs the control flow graph of f.
func BuildCFG(f *Func) *CFG {
	n := len(f.Body)
	g := &CFG{F: f, Succs: make([][]int, n), Preds: make([][]int, n)}
	edge := func(from, to int) {
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	}
	for i, in := range f.Body {
		switch in.Op {
		case OpReturn:
			// no successors
		case OpGoto:
			t, _ := f.LabelPos(in.Target)
			edge(i, t)
		case OpIf:
			t, _ := f.LabelPos(in.Target)
			edge(i, t)
			if i+1 < n {
				edge(i, i+1)
			}
		default:
			if i+1 < n {
				edge(i, i+1)
			}
		}
	}
	return g
}

// Reachable returns the set of nodes reachable from the entry.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Succs))
	if len(seen) == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succs[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// SCCs returns the strongly connected components of the reachable subgraph
// in reverse topological order (callees before callers), using Tarjan's
// algorithm. Unreachable nodes are omitted.
func (g *CFG) SCCs() [][]int {
	n := len(g.Succs)
	reach := g.Reachable()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	counter := 0

	// Iterative Tarjan to avoid deep recursion on long straight-line code.
	type frame struct {
		v, childIdx int
	}
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{root, 0}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.childIdx < len(g.Succs[v]) {
				w := g.Succs[v][fr.childIdx]
				fr.childIdx++
				if !reach[w] {
					continue
				}
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			// Done with v.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	if n > 0 && reach[0] {
		dfs(0)
	}
	return sccs
}

// Cyclic reports whether scc, one of SCCs' components, contains a cycle:
// it has more than one instruction, or its one instruction jumps to itself.
func (g *CFG) Cyclic(scc []int) bool {
	if len(scc) > 1 {
		return true
	}
	v := scc[0]
	for _, w := range g.Succs[v] {
		if w == v {
			return true
		}
	}
	return false
}
