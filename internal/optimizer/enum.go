package optimizer

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

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
	return e.enumerate(newNodeTable(), t)
}

// enumerate is Enumerate over a given node table.
func (e *Enumerator) enumerate(tab *nodeTable, t *Tree) []*Tree {
	e.Stats = EnumStats{}
	rules := e.Rules
	if rules == nil {
		rules = AllRules()
	}
	// A non-nil empty arena: even an empty neighbour list is then non-nil,
	// which is how neighborsOf tells it from one not yet derived.
	s := &subflows{nodeTable: tab, rules: rules, stats: &e.Stats, arena: []*Tree{}}
	var seen []bool // by node id
	root := s.intern(t)
	seen = grow(seen, root.id)
	seen[root.id] = true
	plans := []*Tree{root} // the worklist; every plan on it is a result
	for i := 0; i < len(plans); i++ {
		e.Stats.Expanded++
		for _, n := range s.neighborsOf(plans[i]) {
			if seen = grow(seen, n.id); seen[n.id] {
				e.Stats.MemoHits++
				continue
			}
			seen[n.id] = true
			plans = append(plans, n)
		}
	}
	e.Stats.Subflows = len(tab.index)
	slices.SortFunc(plans, func(a, b *Tree) int { return strings.Compare(a.Key(), b.Key()) })
	return plans
}

// nodeTable hash-conses sub-flows and numbers them densely: every distinct
// sub-flow is one node, and its id indexes the per-node memos of everything
// that walks the table's trees — the enumeration's neighbour lists, the
// Estimator's estimates and the PhysicalOptimizer's candidate plans. An
// Estimator owns one (RankAllNet enumerates into it); a standalone Enumerate
// makes its own. Nodes carry the table's generation, never a pointer to it.
type nodeTable struct {
	gen   uint64
	index map[uint64]*Tree // packed (operator ID, kid ids) → node
}

var tableGens atomic.Uint64

func newNodeTable() *nodeTable {
	return &nodeTable{gen: tableGens.Add(1), index: map[uint64]*Tree{}}
}

// maxOps is how many operators the node key has room for: FromFlow refuses
// larger flows. The key packs the operator ID into 16 bits and each kid's
// id+1 into 24, and 2^24 sub-flows would take gigabytes of plans.
const maxOps = 1 << 16

// node returns the unique tree for op over the interned children l and r
// (nil when absent).
func (tab *nodeTable) node(op *dataflow.Operator, l, r *Tree) *Tree {
	k := uint64(op.ID)<<48 | packID(l)<<24 | packID(r)
	if t, ok := tab.index[k]; ok {
		return t
	}
	if uint(op.ID) >= maxOps || len(tab.index) >= 1<<24-1 {
		panic(fmt.Sprintf("optimizer: sub-flow %d over operator ID %d outside the node key", len(tab.index), op.ID))
	}
	t := &Tree{Op: op, kidBuf: [2]*Tree{l, r}, gen: tab.gen, id: int32(len(tab.index))}
	switch {
	case r != nil:
		t.Kids = t.kidBuf[:2]
	case l != nil:
		t.Kids = t.kidBuf[:1]
	}
	tab.index[k] = t
	return t
}

func packID(t *Tree) uint64 {
	if t == nil {
		return 0
	}
	return uint64(t.id) + 1
}

// intern returns the table's node for t: t itself when the table built it,
// else t rebuilt bottom-up out of table nodes (t is never modified).
func (tab *nodeTable) intern(t *Tree) *Tree {
	if t.gen == tab.gen {
		return t
	}
	var kids [2]*Tree
	for i, k := range t.Kids {
		kids[i] = tab.intern(k)
	}
	return tab.node(t.Op, kids[0], kids[1])
}

// withKid returns t with child j replaced by k.
func (tab *nodeTable) withKid(t *Tree, j int, k *Tree) *Tree {
	kids := t.kidBuf
	kids[j] = k
	return tab.node(t.Op, kids[0], kids[1])
}

// grow extends a memo indexed by node id to cover id.
func grow[T any](s []T, id int32) []T {
	if n := int(id) + 1 - len(s); n > 0 {
		s = append(s, make([]T, n)...)
	}
	return s
}

// subflows is one enumeration's walk over a node table: the memo of
// single-exchange neighbours per node. It dies with the Enumerate call.
type subflows struct {
	*nodeTable
	rules     *RuleSet
	stats     *EnumStats
	neighbors [][]*Tree // by node id; nil until derived
	arena     []*Tree   // the chunk the neighbour lists are carved from
	start     int       // where in arena the list being derived starts
}

// push appends t to the neighbour list being derived. The arena grows by
// chunks that double, and only the unfinished list moves to the next one:
// finished lists never change.
func (s *subflows) push(t *Tree) {
	if len(s.arena) == cap(s.arena) {
		s.arena = append(make([]*Tree, 0, 2*cap(s.arena)+1), s.arena[s.start:]...)
		s.start = 0
	}
	s.arena = append(s.arena, t)
}

// neighborsOf returns every tree reachable from t by exactly one valid
// exchange of a parent operator with the root of one of its child subtrees,
// anywhere in the tree.
func (s *subflows) neighborsOf(t *Tree) []*Tree {
	if s.neighbors = grow(s.neighbors, t.id); s.neighbors[t.id] != nil {
		return s.neighbors[t.id]
	}
	var lifted [2][]*Tree
	for j, kid := range t.Kids {
		lifted[j] = s.neighborsOf(kid)
	}
	// The list is pushed in one piece: nothing below derives neighbours.
	s.start = len(s.arena)
	if t.Op.IsUDFOp() {
		for j, kid := range t.Kids {
			if kid.Op.IsUDFOp() {
				s.exchange(t, j)
			}
		}
	}
	// Exchanges within child subtrees, lifted to this node.
	for j := range t.Kids {
		for _, nk := range lifted[j] {
			s.push(s.withKid(t, j, nk))
		}
	}
	out := s.arena[s.start:len(s.arena):len(s.arena)]
	s.neighbors[t.id] = out
	return out
}
