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
// hash-consed (see subflows in enum.go): every distinct sub-flow is one
// node shared by all alternatives containing it, so its resolved sets,
// its estimates and its candidate physical plans are each computed once
// and found again by node identity.
type Tree struct {
	Op   *dataflow.Operator
	Kids []*Tree

	kidBuf [2]*Tree // backs Kids of interned nodes (operators have ≤ 2 inputs)
	key    string   // canonical key, computed lazily

	// Attribute, read and write sets at this position, resolved lazily.
	// They are shared, never mutated: callers must not modify what Attrs,
	// Reads and Writes return.
	resolved            bool
	attrs, reads, write props.FieldSet
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
		t.attrs = op.Effect.ResolveOutput(in)
		t.reads = op.Effect.ResolveRead(in)
		t.reads.UnionWith(op.AllKeys())
		t.write = op.Effect.ResolveWrite(in)
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

// Size returns the number of nodes.
func (t *Tree) Size() int {
	n := 1
	for _, k := range t.Kids {
		n += k.Size()
	}
	return n
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
