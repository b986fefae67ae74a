// Package optimizer implements the data flow optimizer of the paper:
// reordering conditions for black-box operators (Section 4), the plan
// enumeration algorithm with memo table (Section 6, Algorithm 1, extended
// to binary operators), a cost model driven by the hints the paper's
// prototype uses (Section 7.1), and a physical optimizer that chooses
// shipping and local execution strategies with interesting-property reuse.
//
// The cost model prices the engine's optimized execution paths so that
// enumeration can trade them off: combinable Reduces are charged the
// combined (key-bounded) shuffle volume, and — when a memory budget is set
// (PhysicalOptimizer.MemoryBudget, RankAllNet) — shuffled groupings
// whose receiver volume overflows the budget are charged the disk traffic
// of sorting, spilling, and externally merging the overflow (spillCost),
// which steers plan choice toward combinable and forward-shipping
// alternatives exactly when memory is tight.
package optimizer

import (
	"fmt"
	"strconv"
	"strings"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/props"
)

// Tree is an operator tree: one alternative ordering of a data flow.
// Trees are immutable. The alternatives an enumeration returns are
// hash-consed (see nodeTable in enum.go): every distinct sub-flow is one
// node shared by all alternatives containing it, so its resolved sets,
// its estimates and its candidate physical plans are each computed once
// and found again by the node's dense id. The table of a best-only search
// carves such nodes from chunks, and one of them keeps its whole chunk
// alive.
type Tree struct {
	Op   *dataflow.Operator
	Kids []*Tree

	kidBuf [2]*Tree // backs Kids of interned nodes (operators have ≤ 2 inputs)
	// gen is the generation of the node table that interned the node (0 for
	// none) and id its index there. A number, not a pointer: a plan kept
	// after its ranking retains its own nodes, not the table or the memos.
	gen uint64
	id  int32
	// resolved is set once attrs, reads and write are; it sits beside id so
	// that a node fits a smaller allocation size class.
	resolved bool
	key      string // canonical key, computed lazily

	// Attribute, read and write sets at this position, resolved lazily.
	// They are shared, never mutated: callers must not modify what Attrs,
	// Reads and Writes return.
	attrs, reads, write props.FieldSet
	setBuf              [3]uint64 // backs the three sets while each fits a word
}

// NewTree builds a tree node over the given children.
func NewTree(op *dataflow.Operator, kids ...*Tree) *Tree {
	return &Tree{Op: op, Kids: kids}
}

// FromFlow converts a validated flow into its operator tree (rooted at the
// sink).
func FromFlow(f *dataflow.Flow) (*Tree, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if n := len(f.Operators()); n > maxOps {
		return nil, fmt.Errorf("optimizer: %d operators, more than the %d a plan can hold", n, maxOps)
	}
	var build func(op *dataflow.Operator) *Tree
	build = func(op *dataflow.Operator) *Tree {
		kids := make([]*Tree, len(op.Inputs))
		for i, in := range op.Inputs {
			kids[i] = build(in)
		}
		return NewTree(op, kids...)
	}
	return build(f.Sink), nil
}

// Key returns a canonical string identifying the tree's operator order:
// the operator ID, followed by the parenthesized, comma-separated keys of
// the children (Algorithm 1's getMTabKey).
func (t *Tree) Key() string {
	if t.key == "" {
		t.key = string(t.appendKey(make([]byte, 0, 64)))
	}
	return t.key
}

func (t *Tree) appendKey(b []byte) []byte {
	if t.key != "" {
		return append(b, t.key...)
	}
	b = strconv.AppendInt(b, int64(t.Op.ID), 10)
	if len(t.Kids) == 0 {
		return b
	}
	b = append(b, '(')
	for i, k := range t.Kids {
		if i > 0 {
			b = append(b, ',')
		}
		b = k.appendKey(b)
	}
	return append(b, ')')
}

// resolve computes the node's attribute, read and write sets from its
// operator's symbolic effect and the attribute sets on its input edges.
func (t *Tree) resolve() {
	if t.resolved {
		return
	}
	t.resolved = true
	op := t.Op
	switch op.Kind {
	case dataflow.KindSource:
		t.attrs = op.SourceAttrs
	case dataflow.KindSink:
		t.attrs = t.Kids[0].Attrs()
	default:
		var buf [2]props.FieldSet
		in := buf[:0]
		for _, k := range t.Kids {
			in = append(in, k.Attrs())
		}
		t.attrs = op.Effect.ResolveOutput(t.setBuf[0:0:1], in)
		t.reads = op.Effect.ResolveRead(t.setBuf[1:1:2], in)
		for _, k := range op.Keys {
			for _, f := range k {
				t.reads.Add(f)
			}
		}
		t.write = op.Effect.ResolveWrite(t.setBuf[2:2:3], in)
	}
}

// Attrs returns the attribute set on the tree's output edge, resolving
// operator effects bottom-up (cached).
func (t *Tree) Attrs() props.FieldSet {
	t.resolve()
	return t.attrs
}

// Reads returns the operator's resolved read set R_f at this position in
// the plan, including its key attributes (the paper's f' transformation for
// Match adds the join keys to the read set; key attributes of KAT operators
// are always read). Sources and sinks read nothing.
func (t *Tree) Reads() props.FieldSet {
	t.resolve()
	return t.reads
}

// Writes returns the operator's resolved write set W_f at this position.
func (t *Tree) Writes() props.FieldSet {
	t.resolve()
	return t.write
}

// Operators returns the operators of the tree in post-order.
func (t *Tree) Operators() []*dataflow.Operator {
	var out []*dataflow.Operator
	var rec func(n *Tree)
	rec = func(n *Tree) {
		for _, k := range n.Kids {
			rec(k)
		}
		out = append(out, n.Op)
	}
	rec(t)
	return out
}

// String renders the tree as a nested expression of operator names.
func (t *Tree) String() string {
	if len(t.Kids) == 0 {
		return t.Op.Name
	}
	parts := make([]string, len(t.Kids))
	for i, k := range t.Kids {
		parts[i] = k.String()
	}
	return fmt.Sprintf("%s(%s)", t.Op.Name, strings.Join(parts, ", "))
}

// Indent renders the tree as an indented plan listing.
func (t *Tree) Indent() string {
	var b strings.Builder
	var rec func(n *Tree, depth int)
	rec = func(n *Tree, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), n.Op)
		for _, k := range n.Kids {
			rec(k, depth+1)
		}
	}
	rec(t, 0)
	return b.String()
}
