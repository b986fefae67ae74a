package tac

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"blackboxflow/internal/record"
)

// paperExample is the three-function example of Section 3 of the paper:
// f1 replaces B with |B|, f2 filters records with A < 0, f3 replaces A with
// A + B. Fields: A = 0, B = 1.
const paperExample = `
# f1: B := |B|
func map f1($ir) {
	$b := getfield $ir 1
	$or := copyrec $ir
	if $b >= 0 goto L16
	$b := neg $b
	setfield $or 1 $b
L16: emit $or
	return
}

# f2: filter A < 0
func map f2($ir) {
	$a := getfield $ir 0
	if $a < 0 goto L25
	$or := copyrec $ir
	emit $or
L25: return
}

# f3: A := A + B
func map f3($ir) {
	$a := getfield $ir 0
	$b := getfield $ir 1
	$sum := $a + $b
	$or := copyrec $ir
	setfield $or 0 $sum
	emit $or
	return
}
`

// sinkFn is the emit sink of one UDF call.
type sinkFn = func(record.Record) error

// collect makes one call on a fresh Runner of the given kind and gathers
// what the UDF emits.
func collect(f *Func, kind Kind, call func(*Runner, sinkFn) error) ([]record.Record, error) {
	r, err := NewRunner(f, kind)
	if err != nil {
		return nil, err
	}
	var out []record.Record
	err = call(r, func(rec record.Record) error { out = append(out, rec); return nil })
	return out, err
}

func collectMap(f *Func, in record.Record) ([]record.Record, error) {
	return collect(f, KindMap, func(r *Runner, emit sinkFn) error { return r.Map(in, emit) })
}

func collectReduce(f *Func, g []record.Record) ([]record.Record, error) {
	return collect(f, KindReduce, func(r *Runner, emit sinkFn) error { return r.Reduce(g, emit) })
}

func mustFunc(t *testing.T, p *Program, name string) *Func {
	t.Helper()
	f, ok := p.Lookup(name)
	if !ok {
		t.Fatalf("function %q not found", name)
	}
	return f
}

func TestParsePaperExample(t *testing.T) {
	p, err := Parse(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Order) != 3 {
		t.Fatalf("parsed %d funcs, want 3", len(p.Order))
	}
	f1 := mustFunc(t, p, "f1")
	if f1.Kind != KindMap || len(f1.Params) != 1 || f1.Params[0] != "$ir" {
		t.Errorf("f1 header wrong: %+v", f1)
	}
	// Label resolution.
	if pos, ok := f1.labelIndex["L16"]; !ok || f1.Body[pos].Op != OpEmit {
		t.Errorf("label L16 must point at emit")
	}
}

// TestPaperTraces reproduces the record-level traces of Section 3.
func TestPaperTraces(t *testing.T) {
	p := MustParse(paperExample)
	f1, f2, f3 := mustFunc(t, p, "f1"), mustFunc(t, p, "f2"), mustFunc(t, p, "f3")

	run := func(f *Func, in record.Record) []record.Record {
		out, err := collectMap(f, in)
		if err != nil {
			t.Fatalf("%s(%v): %v", f.Name, in, err)
		}
		return out
	}

	// i = <2,-3>: f1 -> <2,3>, f2 -> <2,3>, f3 -> <5,3>
	i := record.Record{record.Int(2), record.Int(-3)}
	o1 := run(f1, i)
	if len(o1) != 1 || !o1[0].Equal(record.Record{record.Int(2), record.Int(3)}) {
		t.Fatalf("f1(<2,-3>) = %v", o1)
	}
	o2 := run(f2, o1[0])
	if len(o2) != 1 || !o2[0].Equal(o1[0]) {
		t.Fatalf("f2(<2,3>) = %v", o2)
	}
	o3 := run(f3, o2[0])
	if len(o3) != 1 || !o3[0].Equal(record.Record{record.Int(5), record.Int(3)}) {
		t.Fatalf("f3(<2,3>) = %v", o3)
	}

	// i' = <-2,-3>: f2 filters.
	iPrime := record.Record{record.Int(-2), record.Int(-3)}
	o1 = run(f1, iPrime)
	if len(o1) != 1 || !o1[0].Equal(record.Record{record.Int(-2), record.Int(3)}) {
		t.Fatalf("f1(<-2,-3>) = %v", o1)
	}
	if out := run(f2, o1[0]); len(out) != 0 {
		t.Fatalf("f2(<-2,3>) = %v, want empty", out)
	}

	// Reordered f2 before f1 gives the same final output (Section 3).
	o := run(f2, i)
	if len(o) != 1 {
		t.Fatal("f2 must pass <2,-3>")
	}
	o = run(f1, o[0])
	o = run(f3, o[0])
	if len(o) != 1 || !o[0].Equal(record.Record{record.Int(5), record.Int(3)}) {
		t.Fatalf("reordered plan output = %v", o)
	}

	// f3 before f1 changes the result: <2,-3> -> f3 -> <-1,-3> -> f1 -> <-1,3>.
	o = run(f3, i)
	if len(o) != 1 || !o[0].Equal(record.Record{record.Int(-1), record.Int(-3)}) {
		t.Fatalf("f3(<2,-3>) = %v", o)
	}
	o = run(f1, o[0])
	if len(o) != 1 || !o[0].Equal(record.Record{record.Int(-1), record.Int(3)}) {
		t.Fatalf("f1(f3(<2,-3>)) = %v", o)
	}
}

// TestParseRoundTrip: Parse reads back what String renders as the same
// instructions, immediates equal in kind and value — a null immediate, an
// integral float and a truthiness test included, and a string holding a
// comma, a '#' and an escaped quote.
func TestParseRoundTrip(t *testing.T) {
	shapes := `
func map shapes($ir) {
	$b := getfield $ir 0
	$or := copyrec $ir
	$q := 7 / 3.0
	setfield $or 1 $q
	setfield $or 2 null
	$s := const "a,b #\"c\""
	setfield $or 3 $s
	if $b goto T
	return
T:	emit $or
}`
	for _, src := range []string{paperExample, shapes} {
		p := MustParse(src)
		text := p.String()
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, text)
		}
		for _, name := range p.Order {
			f, f2 := p.Funcs[name], mustFunc(t, p2, name)
			if len(f.Body) != len(f2.Body) {
				t.Fatalf("%s: %d instructions, reparsed %d\n%s", name, len(f.Body), len(f2.Body), text)
			}
			for i, in := range f.Body {
				a, b := *in, *f2.Body[i]
				for _, o := range [][2]Operand{{a.A, b.A}, {a.B, b.B}} {
					if o[0].Imm.Kind() != o[1].Imm.Kind() || o[0].Imm.String() != o[1].Imm.String() {
						t.Errorf("%s instr %d: immediate %v (kind %d) reparsed as %v (kind %d)", name, i, o[0].Imm, o[0].Imm.Kind(), o[1].Imm, o[1].Imm.Kind())
					}
				}
				a.A.Imm, a.B.Imm, a.Line = record.Null, record.Null, 0
				b.A.Imm, b.B.Imm, b.Line = record.Null, record.Null, 0
				if a != b {
					t.Errorf("%s instr %d: %s reparsed as %s", name, i, in, f2.Body[i])
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"undefined label", "func map f($ir) {\n goto NOPE \n}", "undefined label"},
		{"nested func", "func map f($ir) {\nfunc map g($ir) {\n}\n}", "nested func"},
		{"dup func", "func map f($ir) {\n}\nfunc map f($ir) {\n}", "duplicate function"},
		{"bad kind", "func widget f($ir) {\n}", "unknown func kind"},
		{"param count", "func map f($a, $b) {\n}", "needs 1 parameter"},
		{"setfield on param", "func map f($ir) {\n setfield $ir 0 1 \n}", "inputs are immutable"},
		{"group op in map", "func map f($ir) {\n $n := groupsize $ir \n}", "group instruction in map"},
		{"kind confusion", "func map f($ir) {\n $x := getfield $ir 0\n emit $x \n}", "used both as"},
		{"dynamic setfield", "func map f($ir) {\n $or := copyrec $ir\n setfield $or $x 1 \n}", "static integer"},
		{"unterminated", "func map f($ir) {\n return", "unterminated"},
		{"empty", "  \n# nothing\n", "no functions"},
		{"bad imm", "func map f($ir) {\n $x := const 12abc \n}", "bad immediate"},
		{"unterminated string", `func map f($ir) {` + "\n" + ` $x := const "oops` + "\n}", "unterminated string"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Parse error = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestImplicitReturnAppended(t *testing.T) {
	p := MustParse("func map f($ir) {\n $or := copyrec $ir\n emit $or\n}")
	f := mustFunc(t, p, "f")
	if f.Body[len(f.Body)-1].Op != OpReturn {
		t.Error("missing implied return")
	}
}

func TestReduceAggregates(t *testing.T) {
	src := `
func reduce sumB($g) {
	$first := groupget $g 0
	$or := copyrec $first
	$s := agg sum $g 1
	setfield $or 2 $s
	emit $or
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "sumB")
	g := []record.Record{
		{record.Int(1), record.Int(10)},
		{record.Int(1), record.Int(32)},
	}
	out, err := collectReduce(f, g)
	if err != nil {
		t.Fatal(err)
	}
	want := record.Record{record.Int(1), record.Int(10), record.Int(42)}
	if len(out) != 1 || !out[0].Equal(want) {
		t.Fatalf("reduce out = %v, want %v", out, want)
	}
}

func TestReduceLoopEmitAll(t *testing.T) {
	// Emits every record of the group — the clickstream "filter buy
	// sessions" shape.
	src := `
func reduce emitAll($g) {
	$n := groupsize $g
	$i := const 0
LOOP: if $i >= $n goto DONE
	$r := groupget $g $i
	$or := copyrec $r
	emit $or
	$i := $i + 1
	goto LOOP
DONE: return
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "emitAll")
	g := []record.Record{{record.Int(1)}, {record.Int(2)}, {record.Int(3)}}
	out, err := collectReduce(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("emitted %d records, want 3", len(out))
	}
}

func TestBinaryConcat(t *testing.T) {
	src := `
func binary join($l, $r) {
	$o := concat $l $r
	emit $o
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "join")
	l := record.Record{record.Int(1), record.Null}
	r := record.Record{record.Null, record.String("x")}
	out, err := collect(f, KindBinary, func(run *Runner, emit sinkFn) error { return run.Binary(l, r, 0, emit) })
	if err != nil {
		t.Fatal(err)
	}
	want := record.Record{record.Int(1), record.String("x")}
	if len(out) != 1 || !out[0].Equal(want) {
		t.Fatalf("join out = %v, want %v", out, want)
	}
}

func TestCoGroup(t *testing.T) {
	src := `
func cogroup cg($g1, $g2) {
	$n1 := groupsize $g1
	$n2 := groupsize $g2
	if $n1 == 0 goto SKIP
	if $n2 == 0 goto SKIP
	$r := groupget $g1 0
	$or := copyrec $r
	setfield $or 3 $n2
	emit $or
SKIP: return
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "cg")
	g1 := []record.Record{{record.Int(1), record.Int(2)}}
	g2 := []record.Record{{record.Int(9)}, {record.Int(8)}}
	cg := func(l, r []record.Record) ([]record.Record, error) {
		return collect(f, KindCoGroup, func(run *Runner, emit sinkFn) error {
			return run.CoGroup(l, r, emit)
		})
	}
	out, err := cg(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Field(3).AsInt() != 2 {
		t.Fatalf("cogroup out = %v", out)
	}
	// Empty side is skipped.
	out, err = cg(g1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("cogroup with empty side = %v, want none", out)
	}
}

func TestStepLimit(t *testing.T) {
	src := `
func map spin($ir) {
L: goto L
}
`
	p := MustParse(src)
	r, err := NewRunnerLimit(mustFunc(t, p, "spin"), KindMap, 1000)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Map(record.Record{}, func(record.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"div by zero", "func map f($ir) {\n $x := 1 / 0\n}", "division by zero"},
		{"mod by zero", "func map f($ir) {\n $x := 1 % 0\n}", "modulo by zero"},
		{"float mod by a fraction", "func map f($ir) {\n $x := 3.5 % 0.5\n}", "float modulo by zero"},
		{"undefined var", "func map f($ir) {\n $x := $nope + 1\n}", "undefined variable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := MustParse(c.src)
			f := mustFunc(t, p, "f")
			_, err := collectMap(f, record.Record{record.Int(1)})
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestGroupGetOutOfRange(t *testing.T) {
	p := MustParse("func reduce f($g) {\n $r := groupget $g 5\n emit $r\n}")
	f := mustFunc(t, p, "f")
	_, err := collectReduce(f, []record.Record{{record.Int(1)}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out of range", err)
	}
}

func TestEmitSnapshotsRecord(t *testing.T) {
	// A record mutated after emit must not retroactively change the
	// already-emitted output.
	src := `
func map f($ir) {
	$or := copyrec $ir
	emit $or
	setfield $or 0 99
	emit $or
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "f")
	out, err := collectMap(f, record.Record{record.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Field(0).AsInt() != 1 || out[1].Field(0).AsInt() != 99 {
		t.Fatalf("out = %v", out)
	}
}

func TestInputImmutableAcrossInvocations(t *testing.T) {
	src := `
func map f($ir) {
	$or := copyrec $ir
	setfield $or 0 7
	emit $or
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "f")
	in := record.Record{record.Int(1)}
	if _, err := collectMap(f, in); err != nil {
		t.Fatal(err)
	}
	if in.Field(0).AsInt() != 1 {
		t.Fatal("input record was mutated")
	}
}

func TestDynamicFieldAccess(t *testing.T) {
	src := `
func map f($ir) {
	$n := getfield $ir 0
	$v := getfield $ir $n
	$or := copyrec $ir
	setfield $or 0 $v
	emit $or
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "f")
	out, err := collectMap(f, record.Record{record.Int(2), record.Int(7), record.Int(9)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Field(0).AsInt() != 9 {
		t.Fatalf("dynamic access out = %v", out)
	}
	// The parser must mark it as dynamic.
	if !f.Body[1].FieldVar {
		t.Error("second getfield should be dynamic")
	}
}

func TestCFGStructure(t *testing.T) {
	p := MustParse(paperExample)
	f2 := mustFunc(t, p, "f2")
	g := f2.CFG()
	// instr 0: getfield; 1: if -> {L25, 2}; 2: copyrec; 3: emit; 4: return(L25)
	if len(g.Succs[1]) != 2 {
		t.Fatalf("if should have 2 successors, got %v", g.Succs[1])
	}
	for _, scc := range g.SCCs() {
		if g.Cyclic(scc) {
			t.Errorf("f2 has no cycle, but SCC %v is cyclic", scc)
		}
	}
	loop := MustParse("func map f($ir) {\nL: goto L\n}")
	lg := mustFunc(t, loop, "f").CFG()
	if sccs := lg.SCCs(); len(sccs) != 1 || !lg.Cyclic(sccs[0]) {
		t.Errorf("self loop must be a cyclic SCC, got %v", sccs)
	}
}

func TestCFGSCCs(t *testing.T) {
	src := `
func reduce f($g) {
	$n := groupsize $g
	$i := const 0
LOOP: if $i >= $n goto DONE
	$i := $i + 1
	goto LOOP
DONE: return
}
`
	p := MustParse(src)
	f := mustFunc(t, p, "f")
	g := f.CFG()
	var loop []int
	for _, scc := range g.SCCs() {
		if len(scc) > len(loop) {
			loop = scc
		}
	}
	if len(loop) < 3 || !g.Cyclic(loop) {
		t.Errorf("loop SCC = %v, want a cyclic SCC of >= 3", loop)
	}
}

func TestDefsUses(t *testing.T) {
	p := MustParse(paperExample)
	f1 := mustFunc(t, p, "f1")
	// $b := getfield $ir 1
	in := f1.Body[0]
	if in.Defs() != "$b" {
		t.Errorf("Defs = %q", in.Defs())
	}
	uses := in.Uses()
	if len(uses) != 1 || uses[0] != "$ir" {
		t.Errorf("Uses = %v", uses)
	}
	// setfield $or 1 $b
	sf := f1.Body[4]
	if sf.Op != OpSetField {
		t.Fatalf("instr 4 is %v", sf)
	}
	if sf.Defs() != "" {
		t.Error("setfield defines nothing")
	}
	got := sf.Uses()
	if len(got) != 2 || got[0] != "$or" || got[1] != "$b" {
		t.Errorf("setfield uses = %v", got)
	}
}

func TestEvalBinOps(t *testing.T) {
	cases := []struct {
		op   BinOp
		a, b record.Value
		want record.Value
	}{
		{BinAdd, record.Int(2), record.Int(3), record.Int(5)},
		{BinAdd, record.Float(1.5), record.Int(1), record.Float(2.5)},
		{BinSub, record.Int(2), record.Int(3), record.Int(-1)},
		{BinMul, record.Int(4), record.Int(3), record.Int(12)},
		{BinDiv, record.Int(7), record.Int(2), record.Int(3)},
		{BinDiv, record.Float(7), record.Int(2), record.Float(3.5)},
		{BinMod, record.Int(7), record.Int(3), record.Int(1)},
		{BinEq, record.Int(2), record.Float(2), record.Bool(true)},
		{BinNe, record.Int(2), record.Int(2), record.Bool(false)},
		{BinLt, record.Int(1), record.Int(2), record.Bool(true)},
		{BinGe, record.Int(2), record.Int(2), record.Bool(true)},
		{BinAnd, record.Bool(true), record.Int(0), record.Bool(false)},
		{BinOr, record.Bool(false), record.Int(1), record.Bool(true)},
		{BinConcat, record.String("a"), record.String("b"), record.String("ab")},
		{BinContains, record.String("gene BRCA1 found"), record.String("BRCA1"), record.Bool(true)},
		{BinContains, record.String("nothing"), record.String("BRCA1"), record.Bool(false)},
	}
	for _, c := range cases {
		got, err := evalBin(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%v: %v", c.op, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%v(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalUnOps(t *testing.T) {
	if v, _ := evalUn(UnNeg, record.Int(3)); !v.Equal(record.Int(-3)) {
		t.Error("neg int")
	}
	if v, _ := evalUn(UnNeg, record.Float(2.5)); !v.Equal(record.Float(-2.5)) {
		t.Error("neg float")
	}
	if v, _ := evalUn(UnAbs, record.Int(-3)); !v.Equal(record.Int(3)) {
		t.Error("abs")
	}
	if v, _ := evalUn(UnNot, record.Bool(false)); !v.AsBool() {
		t.Error("not")
	}
	if v, _ := evalUn(UnLen, record.String("abcd")); v.AsInt() != 4 {
		t.Error("len")
	}
}

func TestEvalAggOps(t *testing.T) {
	g := []record.Record{
		{record.Int(1), record.Int(5)},
		{record.Int(1), record.Int(3)},
		{record.Int(1), record.Int(8)},
	}
	check := func(op AggOp, want record.Value) {
		t.Helper()
		got, err := evalAgg(op, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%v = %v, want %v", op, got, want)
		}
	}
	check(AggSum, record.Int(16))
	check(AggCount, record.Int(3))
	check(AggMin, record.Int(3))
	check(AggMax, record.Int(8))
	check(AggAvg, record.Float(16.0/3.0))
	if v, _ := evalAgg(AggSum, nil, 0); !v.IsNull() {
		t.Error("sum of empty group should be Null")
	}
	if v, _ := evalAgg(AggCount, nil, 0); v.AsInt() != 0 {
		t.Error("count of empty group should be 0")
	}
}

// Property: abs is idempotent and non-negative over the interpreter.
func TestQuickAbsProperty(t *testing.T) {
	p := MustParse(`
func map f($ir) {
	$v := getfield $ir 0
	$a := abs $v
	$or := copyrec $ir
	setfield $or 0 $a
	emit $or
}
`)
	f := mustFunc(t, p, "f")
	prop := func(x int32) bool {
		out, err := collectMap(f, record.Record{record.Int(int64(x))})
		if err != nil || len(out) != 1 {
			return false
		}
		v := out[0].Field(0).AsInt()
		if v < 0 {
			return false
		}
		out2, err := collectMap(f, out[0])
		return err == nil && out2[0].Field(0).AsInt() == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the interpreter's arithmetic matches Go's on int64 add/sub/mul.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	prop := func(a, b int32) bool {
		x, y := record.Int(int64(a)), record.Int(int64(b))
		add, _ := evalBin(BinAdd, x, y)
		sub, _ := evalBin(BinSub, x, y)
		mul, _ := evalBin(BinMul, x, y)
		return add.AsInt() == int64(a)+int64(b) &&
			sub.AsInt() == int64(a)-int64(b) &&
			mul.AsInt() == int64(a)*int64(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestRunnerFrameReuse pins that a reused frame is indistinguishable from a
// fresh one: a variable a previous call defined on a branch this call does
// not take is undefined again, with the fresh frame's exact message, and a
// call after a failed call starts clean.
func TestRunnerFrameReuse(t *testing.T) {
	f := mustFunc(t, MustParse(`
func map f($ir) {
	$a := getfield $ir 0
	if $a == 0 goto USE
	$local := const 7
USE:
	$s := $local + 1
	$or := copyrec $ir
	setfield $or 0 $s
	emit $or
}`), "f")
	defines, skips := record.Record{record.Int(1)}, record.Record{record.Int(0)}
	_, fresh := collectMap(f, skips)
	const want = "tac: f line 7: use of undefined variable $local"
	if fresh == nil || fresh.Error() != want {
		t.Fatalf("fresh frame: err = %v, want %q", fresh, want)
	}
	r, err := NewRunner(f, KindMap)
	if err != nil {
		t.Fatal(err)
	}
	var out []record.Record
	emit := func(rec record.Record) error { out = append(out, rec); return nil }
	for round := 0; round < 3; round++ {
		out = out[:0]
		if err := r.Map(defines, emit); err != nil || len(out) != 1 || out[0].Field(0).AsInt() != 8 {
			t.Fatalf("round %d: defining call = %v, %v", round, out, err)
		}
		if err := r.Map(skips, emit); err == nil || err.Error() != fresh.Error() {
			t.Fatalf("round %d: reused frame: err = %v, want %q", round, err, fresh)
		}
	}
}

// TestNewRunnerRejectsKindAndArity pins that a Runner cannot be built for
// the wrong call shape, so the four call methods never see a frame too
// small for their arguments: NewRunner checks the kind, and a function
// whose parameters do not fit its kind never gets that far — two sharing a
// name would share one slot, leaving the second argument nowhere to go.
func TestNewRunnerRejectsKindAndArity(t *testing.T) {
	p := MustParse(`
func map m($ir) {
	emit $ir
}
func binary b($l, $r) {
	emit $l
}
func reduce r($g) {
	return
}
func cogroup c($g1, $g2) {
	return
}`)
	kinds := map[string]Kind{"m": KindMap, "b": KindBinary, "r": KindReduce, "c": KindCoGroup}
	for name, own := range kinds {
		for _, kind := range []Kind{KindMap, KindBinary, KindReduce, KindCoGroup} {
			_, err := NewRunner(mustFunc(t, p, name), kind)
			if kind == own {
				if err != nil {
					t.Errorf("NewRunner(%s, %s): %v", name, kind, err)
				}
				continue
			}
			if want := "tac: " + name + " is not a " + kind.String() + " function"; err == nil || err.Error() != want {
				t.Errorf("NewRunner(%s, %s): err = %v, want %q", name, kind, err, want)
			}
		}
	}
	for src, want := range map[string]string{
		"func binary same($x, $x) {\n emit $x\n}":                       "duplicate parameter $x",
		"func match samewide($a, $a) {\n $x := 1\n $o := newrec\n}":     "duplicate parameter $a",
		"func cogroup samegroups($g, $g) {\n $x := 1\n $o := newrec\n}": "duplicate parameter $g",
		"func binary one($l) {\n emit $l\n}":                            "needs 2 parameter(s), has 1",
		"func reduce two($g1, $g2) {\n return\n}":                       "needs 1 parameter(s), has 2",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q): err = %v, want %q", src, err, want)
		}
	}
}

// TestRunnerEmitErrorAllKinds pins the sink contract for every call shape:
// an error returned by emit aborts the call and comes back recognisable
// through AsEmitError, which a UDF's own failure never is.
func TestRunnerEmitErrorAllKinds(t *testing.T) {
	p := MustParse(`
func map m($ir) {
	emit $ir
	emit $ir
}
func binary b($l, $r) {
	emit $l
	emit $r
}
func reduce r($g) {
	$x := groupget $g 0
	emit $x
	emit $x
}
func cogroup c($g1, $g2) {
	$x := groupget $g1 0
	emit $x
	emit $x
}
func map bad($ir) {
	$x := 1 / 0
}`)
	rec := record.Record{record.Int(1)}
	grp := []record.Record{rec}
	calls := map[string]func(*Runner, sinkFn) error{
		"m": func(r *Runner, emit sinkFn) error { return r.Map(rec, emit) },
		"b": func(r *Runner, emit sinkFn) error { return r.Binary(rec, rec, 0, emit) },
		"r": func(r *Runner, emit sinkFn) error { return r.Reduce(grp, emit) },
		"c": func(r *Runner, emit sinkFn) error { return r.CoGroup(grp, grp, emit) },
	}
	sinkFull := errors.New("sink full")
	for name, call := range calls {
		f := mustFunc(t, p, name)
		r, err := NewRunner(f, f.Kind)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		err = call(r, func(record.Record) error { emitted++; return sinkFull })
		if inner, ok := AsEmitError(err); !ok || inner != sinkFull || !errors.Is(err, sinkFull) {
			t.Errorf("%s: err = %v, want the sink's error via AsEmitError", name, err)
		}
		if emitted != 1 {
			t.Errorf("%s: emit called %d times, want the call aborted after 1", name, emitted)
		}
	}
	_, err := collectMap(mustFunc(t, p, "bad"), rec)
	if _, ok := AsEmitError(err); err == nil || ok {
		t.Errorf("UDF failure %v must not look like a sink failure", err)
	}
}

// TestStepLimitMessage pins the step-limit error byte for byte.
func TestStepLimitMessage(t *testing.T) {
	r, err := NewRunnerLimit(mustFunc(t, MustParse("func map spin($ir) {\nL: goto L\n}"), "spin"), KindMap, 1000)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Map(record.Record{}, func(record.Record) error { return nil })
	if want := "tac: spin exceeded step limit 1000"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
