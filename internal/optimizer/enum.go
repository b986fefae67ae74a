package optimizer

import (
	"slices"
	"strings"

	"blackboxflow/internal/dataflow"
)

// Enumerator implements the plan enumeration of Section 6: for a given data
// flow it computes every data flow derivable by valid pairwise reorderings
// of operators. Where Algorithm 1 in the paper recursively enumerates
// sub-flows and exchanges neighbouring operators, this implementation
// computes the same closure as a worklist fixpoint over single exchanges.
// Its memo table sits where Algorithm 1's does, at the sub-flow: all trees
// of one enumeration are hash-consed, so a sub-flow shared by many
// alternatives is one node whose single-exchange neighbours are derived
// once, and a whole plan is "already enumerated" iff its root node has been
// seen. The two formulations enumerate the same plan set; the worklist form
// extends to binary operators (join rotations, pushes through either input)
// without special cases.
type Enumerator struct {
	// Rules allows disabling individual exchange-rule families for
	// ablation studies. A nil value enables everything.
	Rules *RuleSet

	// Stats of the last Enumerate call.
	Stats EnumStats
}

// RuleSet toggles exchange-rule families.
type RuleSet struct {
	UnaryUnary  bool // Theorems 1 and 2, Reduce-Reduce
	UnaryBinary bool // Theorem 3 pushes, invariant grouping (Theorem 4)
	Rotations   bool // Lemma 1 join-join rotations
}

// AllRules enables every reordering rule.
func AllRules() *RuleSet {
	return &RuleSet{UnaryUnary: true, UnaryBinary: true, Rotations: true}
}

// EnumStats reports enumeration effort.
type EnumStats struct {
	Expanded int // plans taken off the worklist and expanded
	MemoHits int // neighbour plans already enumerated
	// Exchanges counts the valid operator exchanges applied. Neighbours are
	// derived once per distinct sub-flow, so an exchange inside a sub-flow
	// that many plans share counts once, not once per plan.
	Exchanges int
	Subflows  int // distinct sub-flows (hash-consed nodes) the enumeration built
}

// NewEnumerator returns an enumerator with all rules enabled.
func NewEnumerator() *Enumerator {
	return &Enumerator{Rules: AllRules()}
}

// Enumerate returns all valid reorderings of the data flow t, including t
// itself, in a deterministic order (sorted by canonical key). The result is
// a set: no two returned trees share a canonical key. The returned trees
// share their common sub-flows.
func (e *Enumerator) Enumerate(t *Tree) []*Tree {
	e.Stats = EnumStats{}
	rules := e.Rules
	if rules == nil {
		rules = AllRules()
	}
	s := &subflows{
		rules:     rules,
		stats:     &e.Stats,
		nodes:     map[nodeKey]*Tree{},
		neighbors: map[*Tree][]*Tree{},
	}
	root := s.intern(t)
	seen := map[*Tree]struct{}{root: {}}
	plans := []*Tree{root} // the worklist; every plan on it is a result
	for i := 0; i < len(plans); i++ {
		e.Stats.Expanded++
		for _, n := range s.neighborsOf(plans[i]) {
			if _, ok := seen[n]; ok {
				e.Stats.MemoHits++
				continue
			}
			seen[n] = struct{}{}
			plans = append(plans, n)
		}
	}
	e.Stats.Subflows = len(s.nodes)
	slices.SortFunc(plans, func(a, b *Tree) int { return strings.Compare(a.Key(), b.Key()) })
	return plans
}

// subflows is the hash-consing table of one enumeration and the memo of
// single-exchange neighbours per sub-flow. It lives and dies inside one
// Enumerate call; the trees it built outlive it but do not point back.
type subflows struct {
	rules     *RuleSet
	stats     *EnumStats
	nodes     map[nodeKey]*Tree
	neighbors map[*Tree][]*Tree
}

// nodeKey identifies a sub-flow by its root operator and its (already
// interned) children; l and r are nil for absent inputs.
type nodeKey struct {
	op   *dataflow.Operator
	l, r *Tree
}

// node returns the unique tree for op over the interned children l and r.
func (s *subflows) node(op *dataflow.Operator, l, r *Tree) *Tree {
	k := nodeKey{op, l, r}
	if t, ok := s.nodes[k]; ok {
		return t
	}
	t := &Tree{Op: op, kidBuf: [2]*Tree{l, r}}
	switch {
	case r != nil:
		t.Kids = t.kidBuf[:2]
	case l != nil:
		t.Kids = t.kidBuf[:1]
	}
	s.nodes[k] = t
	return t
}

// intern rebuilds an arbitrary tree bottom-up out of table nodes.
func (s *subflows) intern(t *Tree) *Tree {
	var kids [2]*Tree
	for i, k := range t.Kids {
		kids[i] = s.intern(k)
	}
	return s.node(t.Op, kids[0], kids[1])
}

// withKid returns t with child j replaced by k.
func (s *subflows) withKid(t *Tree, j int, k *Tree) *Tree {
	kids := t.kidBuf
	kids[j] = k
	return s.node(t.Op, kids[0], kids[1])
}

// neighborsOf returns every tree reachable from t by exactly one valid
// exchange of a parent operator with the root of one of its child subtrees,
// anywhere in the tree.
func (s *subflows) neighborsOf(t *Tree) []*Tree {
	if ns, ok := s.neighbors[t]; ok {
		return ns
	}
	// Neighbours of the children first: their count sizes the result.
	var lifted [2][]*Tree
	n := 0
	for j, kid := range t.Kids {
		lifted[j] = s.neighborsOf(kid)
		n += len(lifted[j])
	}
	var out []*Tree
	if n > 0 {
		out = make([]*Tree, 0, n+2)
	}
	if t.Op.IsUDFOp() {
		for j, kid := range t.Kids {
			if kid.Op.IsUDFOp() {
				out = s.exchange(t, j, out)
			}
		}
	}
	// Exchanges within child subtrees, lifted to this node.
	for j := range t.Kids {
		for _, nk := range lifted[j] {
			out = append(out, s.withKid(t, j, nk))
		}
	}
	s.neighbors[t] = out
	return out
}
