package engine

import (
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

func getUDF(t *testing.T, p *tac.Program, name string) *tac.Func {
	t.Helper()
	f, ok := p.Lookup(name)
	if !ok {
		t.Fatalf("missing UDF %s", name)
	}
	return f
}

// oneOp is a flow of one UDF operator over one or two sources, each given
// as its name and attributes ("L lk lv"), plus one extra attribute.
func oneOp(script string, op dataflow.OpDef, srcs ...string) flowDef {
	var ss []dataflow.SourceDef
	for _, s := range srcs {
		f := attrs(s)
		ss = append(ss, dataflow.SourceDef{Name: f[0], Attrs: f[1:], Records: 50, AvgWidthByte: 18})
		op.Inputs = append(op.Inputs, f[0])
	}
	return flowDef{script, dataflow.FlowDef{Attrs: attrs("extra"), Sources: ss, Ops: ops(op), Sink: op.UDF}}
}

func TestMissingSourceData(t *testing.T) {
	if _, _, err := New(2).Run(paperFlow.plan(t, 2)); err == nil {
		t.Fatal("expected error for missing source data")
	}
}

func TestPartitionedHelpers(t *testing.T) {
	p := Partitioned{
		{{record.Int(1)}},
		{{record.Int(2)}, {record.Int(3)}},
		nil,
	}
	if p.Records() != 3 {
		t.Errorf("Records = %d", p.Records())
	}
	if len(p.Flatten()) != 3 {
		t.Errorf("Flatten = %v", p.Flatten())
	}
}
