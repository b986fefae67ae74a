package optimizer

import (
	"bytes"
	"fmt"
	"slices"
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
	// Kept counts the candidate physical plans a ranking kept over all
	// sub-flows, one per distinct output partitioning (RankAllNet sets it;
	// Enumerate leaves it 0).
	Kept int
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
	alts := e.enumerate(newNodeTable(), t)
	keys := keyList{ts: alts}
	order := make([]int32, len(alts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, keys.compare)
	sorted := make([]*Tree, len(alts))
	for i, o := range order {
		sorted[i] = alts[o]
	}
	return sorted
}

// enumerate is Enumerate over a given node table, returning the
// alternatives in the order the worklist found them.
func (e *Enumerator) enumerate(tab *nodeTable, t *Tree) []*Tree {
	e.Stats = EnumStats{}
	rules := e.Rules
	if rules == nil {
		rules = AllRules()
	}
	// arena[0] is never part of a list, so no derived list is the zero span.
	s := &subflows{nodeTable: tab, rules: rules, stats: &e.Stats, arena: make([]int32, 1, 64)}
	var seen []bool // by node id
	root := s.intern(t)
	grow(&seen, root.id)[root.id] = true
	plans := []*Tree{root} // the worklist; every plan on it is a result
	for i := 0; i < len(plans); i++ {
		e.Stats.Expanded++
		nb := s.neighborsOf(plans[i])
		for _, id := range s.arena[nb.lo:nb.hi] {
			if grow(&seen, id)[id] {
				e.Stats.MemoHits++
				continue
			}
			seen[id] = true
			plans = append(plans, tab.nodes[id])
		}
	}
	e.Stats.Subflows = len(tab.nodes)
	return plans
}

// keyList writes the canonical keys of a list of trees end to end into one
// buffer that dies with its owner, each the first time an ordering asks for
// it, so ordering trees by key caches no key on any tree and moves no
// pointer.
type keyList struct {
	ts  []*Tree
	buf []byte
	at  [][2]int32 // key i is buf[at[i][0]:at[i][1]]; at[i][1] is 0 until it is written (no key is empty)
}

func (k *keyList) key(i int32) []byte {
	if k.at == nil {
		k.at = make([][2]int32, len(k.ts))
	}
	at := &k.at[i]
	if at[1] == 0 {
		at[0] = int32(len(k.buf))
		if k.buf = k.ts[i].appendKey(k.buf); at[0] == 0 {
			// Reorderings hold the same operators, so their keys share a length.
			k.buf = slices.Grow(k.buf, (len(k.ts)-1)*len(k.buf))
		}
		at[1] = int32(len(k.buf))
	}
	return k.buf[at[0]:at[1]]
}

// compare orders trees a and b by canonical key.
func (k *keyList) compare(a, b int32) int {
	return bytes.Compare(k.key(a), k.key(b))
}

// nodeTable hash-conses sub-flows and numbers them densely: every distinct
// sub-flow is one node, and its id indexes the per-node memos of everything
// that walks the table's trees — the enumeration's neighbour lists, the
// Estimator's estimates and the PhysicalOptimizer's candidate plans. An
// Estimator owns one (RankAllNet enumerates into it); a standalone Enumerate
// makes its own. Nodes carry the table's generation, never a pointer to it.
type nodeTable struct {
	gen   uint64
	nodes []*Tree  // by id
	keys  []uint64 // by id: packed (operator ID, kid ids)
	slots []int32  // open-addressed index over keys: node id+1, 0 when free
	// carve makes new nodes from chunks the table fills in turn, so a Q7
	// enumeration's 1,859 sub-flows are a handful of allocations, not one
	// each. A node then keeps its whole chunk alive, so only a search whose
	// nodes all die with it carves: Best's, which builds its plan over
	// copies. Otherwise each chunk is one node.
	carve bool
	chunk []Tree // the chunk new nodes are made in
}

// firstChunk and maxChunk bound a carving table's chunks: its first holds
// 16 nodes, and each next one twice its predecessor's, up to 256. A
// paper-sized flow's few dozen sub-flows take two small chunks, and a large
// enumeration adds one allocation per 256 nodes (45 KB).
const (
	firstChunk = 16
	maxChunk   = 256
)

var tableGens atomic.Uint64

func newNodeTable() *nodeTable {
	return &nodeTable{gen: tableGens.Add(1)}
}

// maxOps is how many operators the node key has room for: FromFlow refuses
// larger flows. The key packs the operator ID into 16 bits and each kid's
// id+1 into 24, and 2^24 sub-flows would take gigabytes of plans.
const maxOps = 1 << 16

// node returns the unique tree for op over the interned children l and r
// (nil when absent).
func (tab *nodeTable) node(op *dataflow.Operator, l, r *Tree) *Tree {
	k := uint64(op.ID)<<48 | packID(l)<<24 | packID(r)
	if 2*len(tab.nodes) >= len(tab.slots) {
		tab.rehash()
	}
	i := tab.probe(k)
	if id := tab.slots[i]; id != 0 {
		return tab.nodes[id-1]
	}
	if uint(op.ID) >= maxOps || len(tab.nodes) >= 1<<24-1 {
		panic(fmt.Sprintf("optimizer: sub-flow %d over operator ID %d outside the node key", len(tab.nodes), op.ID))
	}
	if len(tab.chunk) == cap(tab.chunk) {
		n := 1
		if tab.carve {
			n = min(max(firstChunk, 2*cap(tab.chunk)), maxChunk)
		}
		tab.chunk = make([]Tree, 0, n)
	}
	tab.chunk = append(tab.chunk, Tree{Op: op, kidBuf: [2]*Tree{l, r}, gen: tab.gen, id: int32(len(tab.nodes))})
	t := &tab.chunk[len(tab.chunk)-1]
	switch {
	case r != nil:
		t.Kids = t.kidBuf[:2]
	case l != nil:
		t.Kids = t.kidBuf[:1]
	}
	tab.slots[i] = t.id + 1
	add(&tab.nodes, t)
	add(&tab.keys, k)
	return t
}

// probe returns the slot holding key k, or the free slot where it goes.
func (tab *nodeTable) probe(k uint64) int {
	mask := uint64(len(tab.slots) - 1)
	for i := k * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if id := tab.slots[i]; id == 0 || tab.keys[id-1] == k {
			return int(i)
		}
	}
}

// rehash doubles the index, which stays at most half full.
func (tab *nodeTable) rehash() {
	tab.slots = make([]int32, max(64, 2*len(tab.slots)))
	for id, k := range tab.keys {
		tab.slots[tab.probe(k)] = int32(id) + 1
	}
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

// grow extends the memo *s, indexed by node id, to cover id with zero
// entries and returns it. Its capacity at least doubles, so a memo grown one
// id at a time to n entries allocates under 2n in all (append's gentler
// growth of large slices allocates about 5n). *s is written only when it
// grows, so a memo that is already large enough costs its owner no write
// barrier.
func grow[T any](s *[]T, id int32) []T {
	n := len(*s)
	if int(id) < n {
		return *s
	}
	if int(id) >= cap(*s) {
		*s = slices.Grow(*s, max(int(id)+1, 2*cap(*s))-n)
	}
	*s = (*s)[:id+1]
	clear((*s)[n:])
	return *s
}

// add appends v to *s, which doubles when full (see grow).
func add[T any](s *[]T, v T) {
	if len(*s) == cap(*s) {
		*s = slices.Grow(*s, len(*s)+1)
	}
	*s = append(*s, v)
}

// span is a half-open index range [lo, hi) into a flat slice: a node's list
// in a memo that stores all nodes' lists end to end.
type span struct{ lo, hi int32 }

// subflows is one enumeration's walk over a node table: the memo of
// single-exchange neighbours per node. It dies with the Enumerate call.
type subflows struct {
	*nodeTable
	rules     *RuleSet
	stats     *EnumStats
	neighbors []span  // by node id: the node's list in arena; zero until derived
	arena     []int32 // node ids of every neighbour list, end to end
}

// push appends t to the neighbour list being derived.
func (s *subflows) push(t *Tree) {
	add(&s.arena, t.id)
}

// neighborsOf returns where in s.arena the node ids of every tree reachable
// from t lie, by exactly one valid exchange of a parent operator with the
// root of one of its child subtrees, anywhere in the tree.
func (s *subflows) neighborsOf(t *Tree) span {
	if nb := grow(&s.neighbors, t.id)[t.id]; nb != (span{}) {
		return nb
	}
	var lifted [2]span
	for j, kid := range t.Kids {
		lifted[j] = s.neighborsOf(kid)
	}
	// The list is pushed in one piece: nothing below derives neighbours.
	lo := int32(len(s.arena))
	if t.Op.IsUDFOp() {
		for j, kid := range t.Kids {
			if kid.Op.IsUDFOp() {
				s.exchange(t, j)
			}
		}
	}
	// Exchanges within child subtrees, lifted to this node.
	for j, l := range lifted[:len(t.Kids)] {
		for i := l.lo; i < l.hi; i++ {
			s.push(s.withKid(t, j, s.nodes[s.arena[i]]))
		}
	}
	s.neighbors[t.id] = span{lo, int32(len(s.arena))}
	return s.neighbors[t.id]
}
