package dataflow

import (
	"fmt"

	"blackboxflow/internal/tac"
)

// FlowDef describes a data flow over compiled UDFs by name: the form a job
// document carries (internal/jobs) and the form the paper's workloads are
// stated in (internal/workloads). Build turns it into a Flow.
type FlowDef struct {
	// Attrs declares extra global record attributes beyond the sources'
	// (e.g. fields written only by UDFs); optional.
	Attrs []string `json:"attrs,omitempty"`
	// Sources declare the inputs with their attribute names and hints.
	Sources []SourceDef `json:"sources"`
	// Ops are the operators in definition order; inputs refer to earlier
	// ops or sources by name.
	Ops []OpDef `json:"ops"`
	// Sink names the operator whose output the flow returns.
	Sink string `json:"sink"`
}

// SourceDef declares one named source.
type SourceDef struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	// Records and AvgWidthBytes are the optimizer's cardinality hints;
	// zero lets a job document's inline data fill them in.
	Records      float64 `json:"records,omitempty"`
	AvgWidthByte float64 `json:"avg_width_bytes,omitempty"`
}

// OpDef declares one operator.
type OpDef struct {
	// Kind is one of map, reduce, match, cross, cogroup.
	Kind string `json:"kind"`
	// Name labels the operator; defaults to the UDF name.
	Name string `json:"name,omitempty"`
	// UDF names a function from the script.
	UDF string `json:"udf"`
	// Inputs name the producing operators or sources (one for map/reduce,
	// two for the binary kinds).
	Inputs []string `json:"inputs"`
	// Keys are the key attribute names — one list for reduce, one per
	// input for match/cogroup, none for map/cross.
	Keys [][]string `json:"keys,omitempty"`
	// FK marks a match as a primary-key/foreign-key join: "left" or
	// "right" names the input holding the foreign key, so the other
	// input's key is unique. It licenses the invariant-grouping rewrite
	// (Section 4.3.2) that moves a Reduce across the join.
	FK string `json:"fk,omitempty"`
	// Combiner optionally names a reduce-kind UDF for pre-shuffle partial
	// aggregation (reduce only).
	Combiner string `json:"combiner,omitempty"`
	// Optimizer hints; all optional.
	Selectivity    float64 `json:"selectivity,omitempty"`
	CPUCostPerCall float64 `json:"cpu_cost_per_call,omitempty"`
	KeyCardinality float64 `json:"key_cardinality,omitempty"`
}

// Layout returns the global record a FlowDef is built on, attribute names
// by index: each source's attributes in declaration order (an attribute an
// earlier source declared keeps its index), then Attrs. A source listing
// one attribute twice is an error: its rows would lose a column.
func (d *FlowDef) Layout() ([]string, error) {
	n := len(d.Attrs)
	for _, src := range d.Sources {
		n += len(src.Attrs)
	}
	names := make([]string, 0, n)
	lister := make(map[string]int, n) // attribute → 1 + the last source listing it
	for s, src := range d.Sources {
		for _, a := range src.Attrs {
			last, ok := lister[a]
			if last == s+1 {
				return nil, fmt.Errorf("dataflow: source %q lists attribute %q twice", src.Name, a)
			}
			if !ok {
				names = append(names, a)
			}
			lister[a] = s + 1
		}
	}
	for _, a := range d.Attrs {
		if _, ok := lister[a]; !ok {
			lister[a] = 0
			names = append(names, a)
		}
	}
	return names, nil
}

// opKinds maps an OpDef's kind to the operator kind it builds.
var opKinds = map[string]OpKind{
	"map": KindMap, "reduce": KindReduce, "match": KindMatch, "cross": KindCross, "cogroup": KindCoGroup,
}

// fkSides maps an OpDef's FK mark to the Operator's FKSide.
var fkSides = map[string]int{"": FKNone, "left": FKLeft, "right": FKRight}

// Build assembles the flow over prog's UDFs and derives every operator's
// effect by static analysis. hints holds source cardinality hints by
// source name; a source without an entry is built with its SourceDef's.
func (d *FlowDef) Build(prog *tac.Program, hints map[string]Hints) (*Flow, error) {
	if len(d.Sources) == 0 {
		return nil, fmt.Errorf("dataflow: flow has no sources")
	}
	layout, err := d.Layout()
	if err != nil {
		return nil, err
	}
	flow := NewFlow()
	for _, a := range layout {
		flow.DeclareAttr(a)
	}
	byName := map[string]*Operator{}
	for _, src := range d.Sources {
		if src.Name == "" || len(src.Attrs) == 0 {
			return nil, fmt.Errorf("dataflow: source needs a name and attrs")
		}
		if _, dup := byName[src.Name]; dup {
			return nil, fmt.Errorf("dataflow: duplicate operator name %q", src.Name)
		}
		h, ok := hints[src.Name]
		if !ok {
			h = Hints{Records: src.Records, AvgWidthBytes: src.AvgWidthByte}
		}
		byName[src.Name] = flow.Source(src.Name, src.Attrs, h)
	}

	udf := func(name string) (*tac.Func, error) {
		f, ok := prog.Funcs[name]
		if !ok {
			return nil, fmt.Errorf("dataflow: script defines no UDF %q", name)
		}
		return f, nil
	}
	for _, op := range d.Ops {
		if op.Name == "" {
			op.Name = op.UDF
		}
		if op.Name == "" {
			return nil, fmt.Errorf("dataflow: op of kind %q has neither name nor udf", op.Kind)
		}
		if _, dup := byName[op.Name]; dup {
			return nil, fmt.Errorf("dataflow: duplicate operator name %q", op.Name)
		}
		kind, ok := opKinds[op.Kind]
		if !ok {
			return nil, fmt.Errorf("dataflow: op %q has unknown kind %q", op.Name, op.Kind)
		}
		if len(op.Inputs) != kind.NumInputs() {
			return nil, fmt.Errorf("dataflow: op %q (%s) needs %d input(s), has %d", op.Name, op.Kind, kind.NumInputs(), len(op.Inputs))
		}
		ins := make([]*Operator, len(op.Inputs))
		for i, in := range op.Inputs {
			if ins[i] = byName[in]; ins[i] == nil {
				return nil, fmt.Errorf("dataflow: op %q reads undefined input %q", op.Name, in)
			}
		}
		fn, err := udf(op.UDF)
		if err != nil {
			return nil, err
		}
		keyLists := 0
		if kind.IsKeyed() {
			keyLists = kind.NumInputs()
		}
		if len(op.Keys) > keyLists {
			return nil, fmt.Errorf("dataflow: op %q (%s) has %d key lists, takes %d", op.Name, op.Kind, len(op.Keys), keyLists)
		}
		for i := 0; i < keyLists; i++ {
			if i >= len(op.Keys) || len(op.Keys[i]) == 0 {
				return nil, fmt.Errorf("dataflow: op %q (%s) needs key attrs for input %d", op.Name, op.Kind, i)
			}
			for _, a := range op.Keys[i] {
				if _, ok := flow.AttrIndex(a); !ok {
					return nil, fmt.Errorf("dataflow: op %q keys on undeclared attribute %q", op.Name, a)
				}
			}
		}
		fk, ok := fkSides[op.FK]
		if !ok || fk != FKNone && kind != KindMatch {
			return nil, fmt.Errorf("dataflow: op %q (%s) has fk %q; fk is \"left\" or \"right\", on a match only", op.Name, op.Kind, op.FK)
		}
		if op.Combiner != "" && kind != KindReduce {
			return nil, fmt.Errorf("dataflow: op %q (%s) cannot have a combiner", op.Name, op.Kind)
		}
		built := flow.udfOp(op.Name, kind, fn, op.Keys,
			Hints{Selectivity: op.Selectivity, CPUCostPerCall: op.CPUCostPerCall, KeyCardinality: op.KeyCardinality}, ins...)
		built.FKSide = fk
		if op.Combiner != "" {
			if built.Combiner, err = udf(op.Combiner); err != nil {
				return nil, err
			}
		}
		byName[op.Name] = built
	}

	root := byName[d.Sink]
	if root == nil {
		return nil, fmt.Errorf("dataflow: sink %q is not a defined operator", d.Sink)
	}
	flow.SetSink("out", root)
	if err := flow.Validate(); err != nil {
		return nil, err
	}
	if err := flow.DeriveEffects(); err != nil {
		return nil, err
	}
	return flow, nil
}
