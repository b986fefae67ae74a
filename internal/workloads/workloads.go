// Package workloads holds what the paper's evaluation workloads (tpch,
// clickstream, textmine) share. Each states its flow once, as a Def — the
// PactScript UDFs and a dataflow.FlowDef carrying every hint and PK-FK mark
// — the same description a job document carries, and builds it with the
// effects static code analysis derives or with the manual annotations
// Table 1 compares them against.
package workloads

import (
	"fmt"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
)

// Mode selects how operator properties are obtained, mirroring Table 1 of
// the paper: static code analysis or manual annotations.
type Mode int

// Annotation modes.
const (
	ModeSCA Mode = iota
	ModeManual
)

// Def is one workload's definition: its UDFs in PactScript and the flow
// wiring them.
type Def struct {
	Script string
	Flow   dataflow.FlowDef
}

// Layout returns the global index of every attribute of flow, for writing
// field indices into a Def's PactScript. A workload's flow is fixed, so a
// layout error is a programming error and panics.
func Layout(flow *dataflow.FlowDef) map[string]int {
	names, err := flow.Layout()
	if err != nil {
		panic(err)
	}
	at := make(map[string]int, len(names))
	for i, a := range names {
		at[a] = i
	}
	return at
}

// Build compiles d's script and builds its flow, effects derived by static
// code analysis. In ModeManual every UDF operator's effect is then replaced
// by manual's annotation for the operator's name; manual is given the built
// flow to resolve attribute names.
func (d *Def) Build(mode Mode, manual func(f *dataflow.Flow) map[string]*props.Effect) (*dataflow.Flow, error) {
	prog, err := frontend.Compile(d.Script)
	if err != nil {
		return nil, err
	}
	f, err := d.Flow.Build(prog, nil)
	if err != nil || mode == ModeSCA {
		return f, err
	}
	effects := manual(f)
	for _, op := range f.Operators() {
		if !op.IsUDFOp() {
			continue
		}
		e, ok := effects[op.Name]
		if !ok {
			return nil, fmt.Errorf("workloads: no manual annotation for %s", op.Name)
		}
		op.SetEffect(e)
	}
	return f, nil
}

// ConcatJoin annotates a Match UDF that concatenates both inputs and emits
// exactly one record per pair.
func ConcatJoin() *props.Effect {
	e := props.NewEffect(2)
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}
