package tac

import "math/bits"

// ParamDef is the position USE-DEF gives a parameter's definition: the
// function's entry.
const ParamDef = -1

// CFG is what NewProgram derives once about a function's flow: the
// instruction-granularity control flow graph (node i is f.Body[i], the
// entry is node 0), the numbering of its variables, and the definitions
// reaching every instruction. Lowering reads its must-defined proof and
// liveness from it, SCA its USE-DEF and DEF-USE chains (Section 5). A CFG
// is never written after NewProgram returns.
type CFG struct {
	F     *Func
	Succs [][]int
	Preds [][]int
	reach []bool         // reachable from the entry
	vars  map[string]int // variable -> slot (varSlots)
	def   []int          // slot of the variable each instruction defines, or -1
	// Per instruction, the definition sites reaching it: a bitset of w
	// words, where bit v is variable v's definition at the entry (a
	// parameter's ParamDef; for any other variable it means "undefined")
	// and bit nv+i is instruction i's.
	in []uint64
	// Per instruction, the variables it uses: a bitset of vw words.
	use       []uint64
	nv, w, vw int
}

// buildCFG derives the CFG of f, whose labels validate has checked.
func buildCFG(f *Func) *CFG {
	n := len(f.Body)
	vars := varSlots(f)
	nv, w, vw := len(vars), (len(vars)+n+63)/64, (len(vars)+63)/64
	sets := make([]uint64, n*w+n*vw)
	g := &CFG{F: f, Succs: make([][]int, n), Preds: make([][]int, n), reach: make([]bool, n), vars: vars, def: make([]int, n),
		in: sets[:n*w], use: sets[n*w:], nv: nv, w: w, vw: vw}
	kill := make([]uint64, nv*w) // per variable, the sites defining it; only the fixpoint reads it
	// An instruction has at most two successors, so the successor lists
	// share one array, and the predecessor lists another.
	ends, deg := make([]int, 0, 2*n), make([]int, n)
	for v := range nv {
		setBit(kill, v*w, v)
	}
	for i, in := range f.Body {
		from := len(ends)
		switch in.Op {
		case OpReturn:
			// no successors
		case OpGoto:
			ends = append(ends, f.labelIndex[in.Target])
		case OpIf:
			ends = append(ends, f.labelIndex[in.Target])
			fallthrough
		default:
			if i+1 < n {
				ends = append(ends, i+1)
			}
		}
		g.Succs[i] = ends[from:len(ends):len(ends)]
		for _, t := range g.Succs[i] {
			deg[t]++
		}
		g.def[i] = -1
		if d := in.Defs(); d != "" {
			g.def[i] = vars[d]
			setBit(kill, vars[d]*w, nv+i)
		}
		for _, u := range in.Uses() {
			setBit(g.use, i*vw, vars[u])
		}
	}
	preds := make([]int, len(ends))
	for t, at := 0, 0; t < n; t++ {
		g.Preds[t], at = preds[at:at:at+deg[t]], at+deg[t]
	}
	for i, succs := range g.Succs {
		for _, t := range succs {
			g.Preds[t] = append(g.Preds[t], i)
		}
	}
	if n > 0 {
		g.reachingDefs(kill)
	}
	return g
}

func setBit(b []uint64, row, i int) { b[row+i/64] |= 1 << (i % 64) }

func hasBit(b []uint64, row, i int) bool { return b[row+i/64]&(1<<(i%64)) != 0 }

// reachingDefs solves reaching definitions, a forward may-analysis, by
// round-robin iteration to the least fixpoint: every variable's entry site
// reaches the entry, an instruction's definition kills its variable's other
// sites, and joins take the union. The same passes mark what the entry
// reaches; an unreachable instruction neither receives sites nor passes its
// own on.
func (g *CFG) reachingDefs(kill []uint64) {
	w := g.w
	g.reach[0] = true
	for changed := true; changed; {
		changed = false
		for i := range g.Succs {
			for _, p := range g.Preds[i] {
				if !g.reach[i] && g.reach[p] {
					g.reach[i], changed = true, true
				}
			}
			if !g.reach[i] {
				continue
			}
			for k := range w {
				var v uint64
				if r := g.nv - 64*k; i == 0 && r > 0 { // the entry sites, bits [0, nv)
					v = ^uint64(0) >> (64 - min(r, 64))
				}
				for _, p := range g.Preds[i] {
					if !g.reach[p] {
						continue
					}
					out := g.in[p*w+k]
					if d := g.def[p]; d >= 0 {
						out &^= kill[d*w+k]
						if s := g.nv + p; s/64 == k {
							out |= 1 << (s % 64)
						}
					}
					v |= out
				}
				if g.in[i*w+k] != v {
					g.in[i*w+k] = v
					changed = true
				}
			}
		}
	}
}

// defined reports whether variable v is defined on every path from the
// entry to instruction pos: it is a parameter, or its undefined entry site
// does not reach pos. Unreachable instructions never run, so every variable
// counts as defined there.
func (g *CFG) defined(pos, v int) bool {
	return v < len(g.F.Params) || !hasBit(g.in, pos*g.w, v)
}

// UseDef returns the positions of the definitions of v that reach
// instruction pos (USE-DEF(pos, v) in the paper's notation), in increasing
// order, ParamDef first.
func (g *CFG) UseDef(pos int, v string) []int {
	s, ok := g.vars[v]
	if !ok {
		return nil
	}
	var defs []int
	for k := range g.w {
		for b := g.in[pos*g.w+k]; b != 0; b &= b - 1 {
			switch site := k*64 + bits.TrailingZeros64(b); {
			case site >= g.nv:
				if g.def[site-g.nv] == s {
					defs = append(defs, site-g.nv)
				}
			case site == s && s < len(g.F.Params):
				defs = append(defs, ParamDef)
			}
		}
	}
	return defs
}

// DefUse returns the instructions that may use the definition of v at
// position def (DEF-USE(def, v)), in increasing order.
func (g *CFG) DefUse(def int, v string) []int {
	s, ok := g.vars[v]
	site := g.nv + def
	if def == ParamDef {
		ok, site = ok && s < len(g.F.Params), s
	}
	if !ok {
		return nil
	}
	var uses []int
	for i := range g.Succs {
		if hasBit(g.use, i*g.vw, s) && hasBit(g.in, i*g.w, site) {
			uses = append(uses, i)
		}
	}
	return uses
}

// Reachable returns, per instruction, whether it is reachable from the
// entry. The slice is the CFG's own: callers must not write it.
func (g *CFG) Reachable() []bool { return g.reach }

// SCCs returns the strongly connected components of the reachable subgraph
// in reverse topological order (callees before callers), using Tarjan's
// algorithm. Unreachable nodes are omitted.
func (g *CFG) SCCs() [][]int {
	n, reach := len(g.Succs), g.reach
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

// varSlots numbers f's variables, parameters first and the rest in order of
// appearance: each variable's slot in a call's frame.
func varSlots(f *Func) map[string]int {
	slots := map[string]int{}
	add := func(v string) {
		if _, ok := slots[v]; v != "" && !ok {
			slots[v] = len(slots)
		}
	}
	for _, p := range f.Params {
		add(p)
	}
	for _, in := range f.Body {
		add(in.Dst)
		add(in.A.Var)
		add(in.B.Var)
		add(in.Rec)
		add(in.Rec2)
		add(in.Group)
	}
	return slots
}
