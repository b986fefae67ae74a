// Package dataflow models PACT data flow programs (Section 2.3 of the
// paper): directed acyclic graphs of data sources, data sinks, and operators
// that pair a second-order function (Map, Reduce, Cross, Match, CoGroup)
// with a first-order user-defined function.
//
// Flows in this package are logical: they carry the operator graph, the
// UDFs, the key specifications, optional cost hints, and the operator
// properties (read/write sets et al.) derived by SCA or supplied as manual
// annotations. The optimizer package enumerates reorderings of a flow and
// the engine package executes physical plans derived from it.
//
// Attributes are global (Definition 1): every attribute any operator touches
// has a unique index in the plan's global record, assigned when sources
// declare their schemas and when UDFs add new fields. The redirection map
// α(D, n) of the paper is the identity under this layout, which makes UDF
// field indices stable under reordering by construction.
package dataflow

import (
	"fmt"

	"blackboxflow/internal/props"
	"blackboxflow/internal/sca"
	"blackboxflow/internal/tac"
)

// OpKind enumerates node kinds: the five second-order functions of the PACT
// programming model plus sources and sinks.
type OpKind uint8

// Node kinds.
const (
	KindSource OpKind = iota
	KindSink
	KindMap
	KindReduce
	KindCross
	KindMatch
	KindCoGroup
)

// String returns the kind's name.
func (k OpKind) String() string {
	switch k {
	case KindSource:
		return "Source"
	case KindSink:
		return "Sink"
	case KindMap:
		return "Map"
	case KindReduce:
		return "Reduce"
	case KindCross:
		return "Cross"
	case KindMatch:
		return "Match"
	case KindCoGroup:
		return "CoGroup"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// NumInputs returns how many inputs the kind takes.
func (k OpKind) NumInputs() int {
	switch k {
	case KindSource:
		return 0
	case KindCross, KindMatch, KindCoGroup:
		return 2
	default:
		return 1
	}
}

// IsBinary reports whether the kind has two inputs.
func (k OpKind) IsBinary() bool { return k.NumInputs() == 2 }

// IsKeyed reports whether the kind requires key fields.
func (k OpKind) IsKeyed() bool {
	return k == KindReduce || k == KindMatch || k == KindCoGroup
}

// Hints carry the cost-model inputs the paper's optimizer relies on
// (Section 7.1): "Average Number of Records Emitted per UDF Call", "CPU Cost
// per UDF Call", and "Number of Distinct Values per Key-Set". Sources
// additionally declare their cardinality and average record width.
type Hints struct {
	// Records is the source cardinality (sources only).
	Records float64
	// AvgWidthBytes is the average serialized record width (sources only).
	AvgWidthBytes float64
	// Selectivity is the average number of records emitted per UDF call.
	// For Match it is per matching pair; for Reduce/CoGroup per key group.
	Selectivity float64
	// CPUCostPerCall is the relative CPU cost of one UDF invocation.
	CPUCostPerCall float64
	// KeyCardinality estimates the number of distinct values of the
	// operator's key within its input (Reduce/Match/CoGroup).
	KeyCardinality float64
}

// FKSide values for Match operators: the paper's invariant-grouping rewrite
// (Section 4.3.2) needs to know that a join is a primary-key/foreign-key
// join. This is a data property, available to both the manually annotated
// and the SCA-driven optimizer modes.
const (
	FKNone  = -1 // not a PK-FK join
	FKLeft  = 0  // left input holds the foreign key (right is the PK side)
	FKRight = 1  // right input holds the foreign key (left is the PK side)
)

// Operator is a node of a data flow.
type Operator struct {
	ID   int
	Name string
	Kind OpKind

	// Inputs in plan order (empty for sources).
	Inputs []*Operator

	// UDF is the operator's first-order function (nil for sources/sinks).
	UDF *tac.Func

	// Effect holds the operator's symbolic properties, either derived by
	// SCA (DeriveEffects) or manually annotated (SetEffect). Nil until one
	// of those happens (sources and sinks keep a synthetic effect).
	Effect *props.Effect

	// Keys[i] are the key fields (global indices) of input i. Reduce uses
	// Keys[0]; Match and CoGroup use Keys[0] and Keys[1].
	Keys [][]int
	// keySets are Keys as FieldSets, built once with the operator (its
	// Keys do not change after) and shared read-only by every optimizer
	// run over the flow.
	keySets []props.FieldSet

	// Combiner declares a Reduce decomposable into partial + final
	// aggregation: a reduce-kind UDF that collapses any subset of a key
	// group into one partial record such that running the operator's UDF
	// over partial records yields the same result as over the raw records
	// (sum-of-sums, max-of-maxes, ...). When set — and when the physical
	// optimizer proves the declaration safe against the combiner's
	// read/write sets (props.CombinerSafe) — the engine applies it on the
	// shuffle senders, shipping at most one record per (group key, target)
	// per flush window instead of every input record. Fully algebraic
	// aggregates typically pass the operator's own UDF here. Nil means no
	// pre-shuffle aggregation. Only valid on KindReduce.
	Combiner *tac.Func

	// CombinerEffect holds the combiner's symbolic properties, derived by
	// SCA in DeriveEffects or set by hand (a manual annotation). The
	// optimizer ignores Combiner until an effect is attached.
	CombinerEffect *props.Effect

	// SourceAttrs are the attributes a source produces.
	SourceAttrs props.FieldSet

	// FKSide marks a Match as a PK-FK join (FKLeft/FKRight), or FKNone.
	FKSide int

	Hints Hints
}

// KeySet returns the key fields of input i as a FieldSet. The set of an
// operator built by a Flow is built with it and shared: callers must not
// modify it.
func (o *Operator) KeySet(i int) props.FieldSet {
	switch {
	case i < len(o.keySets):
		return o.keySets[i]
	case i < len(o.Keys):
		return props.NewFieldSet(o.Keys[i]...)
	}
	return nil
}

// IsUDFOp reports whether the operator carries a user-defined function.
func (o *Operator) IsUDFOp() bool {
	switch o.Kind {
	case KindSource, KindSink:
		return false
	}
	return true
}

// String renders a short description.
func (o *Operator) String() string {
	if len(o.Keys) > 0 {
		return fmt.Sprintf("%s[%s %v]", o.Name, o.Kind, o.Keys)
	}
	return fmt.Sprintf("%s[%s]", o.Name, o.Kind)
}

// Flow is a logical data flow program: a tree of operators rooted at a sink
// (the enumeration algorithm of the paper is defined for tree-shaped flows;
// Section 6).
type Flow struct {
	Sink *Operator

	nextID    int
	attrNames []string // global index -> attribute name
	attrIndex map[string]int
	ops       []*Operator
}

// NewFlow returns an empty flow.
func NewFlow() *Flow {
	return &Flow{attrIndex: map[string]int{}}
}

// DeclareAttr registers a named attribute of the global record and returns
// its global index. Re-declaring a name returns the existing index.
func (f *Flow) DeclareAttr(name string) int {
	if i, ok := f.attrIndex[name]; ok {
		return i
	}
	i := len(f.attrNames)
	f.attrNames = append(f.attrNames, name)
	f.attrIndex[name] = i
	return i
}

// Attr returns the global index of a declared attribute, panicking on
// unknown names (a programming error in flow construction).
func (f *Flow) Attr(name string) int {
	i, ok := f.attrIndex[name]
	if !ok {
		panic(fmt.Sprintf("dataflow: undeclared attribute %q", name))
	}
	return i
}

// AttrIndex returns the global index of a declared attribute and whether it
// exists.
func (f *Flow) AttrIndex(name string) (int, bool) {
	i, ok := f.attrIndex[name]
	return i, ok
}

// AttrName returns the name of a global attribute index.
func (f *Flow) AttrName(i int) string {
	if i >= 0 && i < len(f.attrNames) {
		return f.attrNames[i]
	}
	return fmt.Sprintf("attr%d", i)
}

// NumAttrs returns the width of the global record.
func (f *Flow) NumAttrs() int { return len(f.attrNames) }

// Operators returns all operators in creation order.
func (f *Flow) Operators() []*Operator { return f.ops }

func (f *Flow) newOp(name string, kind OpKind, inputs ...*Operator) *Operator {
	op := &Operator{ID: f.nextID, Name: name, Kind: kind, Inputs: inputs, FKSide: FKNone}
	f.nextID++
	f.ops = append(f.ops, op)
	return op
}

// Source adds a data source producing the named attributes (which are
// declared in the global record if new). Hints should carry Records and
// AvgWidthBytes.
func (f *Flow) Source(name string, attrNames []string, hints Hints) *Operator {
	op := f.newOp(name, KindSource)
	for _, an := range attrNames {
		op.SourceAttrs.Add(f.DeclareAttr(an))
	}
	op.Hints = hints
	// A source's effect: emits exactly one record per stored record and
	// touches nothing.
	op.Effect = props.NewEffect(0)
	op.Effect.EmitMin, op.Effect.EmitMax = 1, 1
	return op
}

// udfOp adds an operator of kind running udf over inputs, keyed on the
// named attributes of each input in keys (none for Map and Cross).
func (f *Flow) udfOp(name string, kind OpKind, udf *tac.Func, keys [][]string, hints Hints, inputs ...*Operator) *Operator {
	op := f.newOp(name, kind, inputs...)
	op.UDF, op.Hints = udf, hints
	for _, k := range keys {
		op.Keys = append(op.Keys, f.attrsToIdx(k))
		op.keySets = append(op.keySets, props.NewFieldSet(op.Keys[len(op.Keys)-1]...))
	}
	return op
}

// Map adds a Map operator.
func (f *Flow) Map(name string, udf *tac.Func, in *Operator, hints Hints) *Operator {
	return f.udfOp(name, KindMap, udf, nil, hints, in)
}

// Reduce adds a Reduce operator grouping on the named key attributes.
func (f *Flow) Reduce(name string, udf *tac.Func, keyAttrs []string, in *Operator, hints Hints) *Operator {
	return f.udfOp(name, KindReduce, udf, [][]string{keyAttrs}, hints, in)
}

// Match adds a Match (equi-join) operator with per-input key attributes.
func (f *Flow) Match(name string, udf *tac.Func, leftKeys, rightKeys []string, left, right *Operator, hints Hints) *Operator {
	return f.udfOp(name, KindMatch, udf, [][]string{leftKeys, rightKeys}, hints, left, right)
}

// Cross adds a Cross (Cartesian product) operator.
func (f *Flow) Cross(name string, udf *tac.Func, left, right *Operator, hints Hints) *Operator {
	return f.udfOp(name, KindCross, udf, nil, hints, left, right)
}

// CoGroup adds a CoGroup operator with per-input key attributes.
func (f *Flow) CoGroup(name string, udf *tac.Func, leftKeys, rightKeys []string, left, right *Operator, hints Hints) *Operator {
	return f.udfOp(name, KindCoGroup, udf, [][]string{leftKeys, rightKeys}, hints, left, right)
}

// SetCombiner declares the Reduce decomposable, attaching the reduce-kind
// UDF used for pre-shuffle partial aggregation (see Operator.Combiner).
// Passing the operator's own UDF is the common case for fully algebraic
// aggregates. Validate rejects combiners on non-Reduce operators and
// combiners of the wrong TAC kind.
func (o *Operator) SetCombiner(f *tac.Func) *Operator {
	o.Combiner = f
	return o
}

// SetSink designates the flow's sink, wrapping the given root operator.
func (f *Flow) SetSink(name string, root *Operator) *Operator {
	op := f.newOp(name, KindSink, root)
	op.Effect = props.NewEffect(1)
	op.Effect.EmitMin, op.Effect.EmitMax = 1, 1
	op.Effect.CopiesParam[0] = true
	f.Sink = op
	return op
}

func (f *Flow) attrsToIdx(names []string) []int {
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = f.Attr(n)
	}
	return idx
}

// Validate checks flow well-formedness: a sink exists, the graph is a tree
// (every operator has exactly one consumer), arities match, keyed operators
// have keys, and every UDF operator has a UDF of the matching TAC kind.
func (f *Flow) Validate() error {
	if f.Sink == nil {
		return fmt.Errorf("dataflow: flow has no sink")
	}
	consumers := map[int]int{}
	seen := map[int]bool{}
	var rec func(op *Operator) error
	rec = func(op *Operator) error {
		if got, want := len(op.Inputs), op.Kind.NumInputs(); got != want {
			return fmt.Errorf("dataflow: %s has %d inputs, want %d", op, got, want)
		}
		if op.Kind.IsKeyed() {
			n := op.Kind.NumInputs()
			if len(op.Keys) != n {
				return fmt.Errorf("dataflow: %s needs %d key sets, has %d", op, n, len(op.Keys))
			}
			for i, k := range op.Keys {
				if len(k) == 0 {
					return fmt.Errorf("dataflow: %s input %d has empty key", op, i)
				}
			}
			if n == 2 && len(op.Keys[0]) != len(op.Keys[1]) {
				return fmt.Errorf("dataflow: %s keys %d attributes of input 0 against %d of input 1", op, len(op.Keys[0]), len(op.Keys[1]))
			}
		}
		if op.IsUDFOp() {
			if op.UDF == nil {
				return fmt.Errorf("dataflow: %s has no UDF", op)
			}
			want := map[OpKind]tac.Kind{
				KindMap: tac.KindMap, KindReduce: tac.KindReduce,
				KindCross: tac.KindBinary, KindMatch: tac.KindBinary,
				KindCoGroup: tac.KindCoGroup,
			}[op.Kind]
			if op.UDF.Kind != want {
				return fmt.Errorf("dataflow: %s UDF %s has kind %s, want %s", op, op.UDF.Name, op.UDF.Kind, want)
			}
		}
		if op.Combiner != nil {
			if op.Kind != KindReduce {
				return fmt.Errorf("dataflow: %s declares a combiner; combiners are only valid on Reduce", op)
			}
			if op.Combiner.Kind != tac.KindReduce {
				return fmt.Errorf("dataflow: %s combiner %s has kind %s, want %s",
					op, op.Combiner.Name, op.Combiner.Kind, tac.KindReduce)
			}
		}
		if seen[op.ID] {
			return nil
		}
		seen[op.ID] = true
		for _, in := range op.Inputs {
			consumers[in.ID]++
			if err := rec(in); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(f.Sink); err != nil {
		return err
	}
	for id, n := range consumers {
		if n > 1 {
			return fmt.Errorf("dataflow: operator id %d has %d consumers; flows must be trees", id, n)
		}
	}
	return nil
}

// DeriveEffects runs static code analysis once per distinct UDF in the
// flow, combiners included, and attaches the derived effects, replacing any
// set before. Operators that share a function share its effect, which
// nothing writes in place.
func (f *Flow) DeriveEffects() error {
	effects := map[*tac.Func]*props.Effect{}
	derive := func(fn *tac.Func, dst **props.Effect) (err error) {
		if fn != nil {
			if effects[fn] == nil {
				effects[fn], err = sca.Analyze(fn)
			}
			*dst = effects[fn]
		}
		return err
	}
	for _, op := range f.ops {
		if err := derive(op.UDF, &op.Effect); err != nil {
			return fmt.Errorf("dataflow: SCA of %s (%s): %w", op, op.UDF.Name, err)
		}
		if err := derive(op.Combiner, &op.CombinerEffect); err != nil {
			return fmt.Errorf("dataflow: SCA of %s combiner (%s): %w", op, op.Combiner.Name, err)
		}
	}
	return nil
}

// SetEffect attaches a manual annotation to an operator, overriding SCA.
func (o *Operator) SetEffect(e *props.Effect) { o.Effect = e }
