package frontend

import (
	"strings"
	"testing"
	"testing/quick"

	"blackboxflow/internal/props"
	"blackboxflow/internal/record"
	"blackboxflow/internal/sca"
	"blackboxflow/internal/tac"
)

// section3 is the paper's worked example written in PactScript.
const section3 = `
// f1 replaces B with |B|.
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		out[1] = -b
	}
	emit out
}

// f2 keeps records with A >= 0.
map f2(ir) {
	a := ir[0]
	if a >= 0 {
		emit ir
	}
}

// f3 replaces A with A + B.
map f3(ir) {
	out := copy(ir)
	out[0] = ir[0] + ir[1]
	emit out
}
`

func compileFuncByName(t *testing.T, src, name string) *tac.Func {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := prog.Lookup(name)
	if !ok {
		t.Fatalf("missing %s", name)
	}
	return f
}

// collect makes one UDF call on a fresh tac.Runner and gathers what the UDF
// emits.
func collect(f *tac.Func, call func(r *tac.Runner, emit func(record.Record) error) error) ([]record.Record, error) {
	r, err := tac.NewInterp().NewRunner(f, f.Kind)
	if err != nil {
		return nil, err
	}
	var out []record.Record
	err = call(r, func(rec record.Record) error { out = append(out, rec); return nil })
	return out, err
}

func collectMap(f *tac.Func, in record.Record) ([]record.Record, error) {
	return collect(f, func(r *tac.Runner, emit func(record.Record) error) error { return r.Map(in, emit) })
}

func runMap(t *testing.T, f *tac.Func, in record.Record) []record.Record {
	t.Helper()
	out, err := collectMap(f, in)
	if err != nil {
		t.Fatalf("%s(%v): %v", f.Name, in, err)
	}
	return out
}

// TestSection3Semantics: compiled PactScript reproduces the paper's traces.
func TestSection3Semantics(t *testing.T) {
	f1 := compileFuncByName(t, section3, "f1")
	f2 := compileFuncByName(t, section3, "f2")
	f3 := compileFuncByName(t, section3, "f3")

	i := record.Record{record.Int(2), record.Int(-3)}
	o := runMap(t, f1, i)
	if len(o) != 1 || !o[0].Equal(record.Record{record.Int(2), record.Int(3)}) {
		t.Fatalf("f1 = %v", o)
	}
	o = runMap(t, f2, o[0])
	if len(o) != 1 {
		t.Fatalf("f2 = %v", o)
	}
	o = runMap(t, f3, o[0])
	if len(o) != 1 || !o[0].Equal(record.Record{record.Int(5), record.Int(3)}) {
		t.Fatalf("f3 = %v", o)
	}
	if out := runMap(t, f2, record.Record{record.Int(-2), record.Int(-3)}); len(out) != 0 {
		t.Fatalf("f2 must filter: %v", out)
	}
}

// TestSection3Properties: the SCA results on compiled code match the
// paper's (and the hand-written TAC's) properties.
func TestSection3Properties(t *testing.T) {
	in := []props.FieldSet{props.NewFieldSet(0, 1)}

	e1, err := sca.Analyze(compileFuncByName(t, section3, "f1"))
	if err != nil {
		t.Fatal(err)
	}
	if r := e1.ResolveRead(in); !r.Equal(props.NewFieldSet(1)) {
		t.Errorf("R_f1 = %v, want {1}", r)
	}
	if w := e1.ResolveWrite(in); !w.Equal(props.NewFieldSet(1)) {
		t.Errorf("W_f1 = %v, want {1}", w)
	}

	e2, err := sca.Analyze(compileFuncByName(t, section3, "f2"))
	if err != nil {
		t.Fatal(err)
	}
	if r := e2.ResolveRead(in); !r.Equal(props.NewFieldSet(0)) {
		t.Errorf("R_f2 = %v, want {0}", r)
	}
	if w := e2.ResolveWrite(in); w.Len() != 0 {
		t.Errorf("W_f2 = %v, want empty", w)
	}
	if e2.EmitMin != 0 || e2.EmitMax != 1 {
		t.Errorf("f2 emits [%d,%d]", e2.EmitMin, e2.EmitMax)
	}

	e3, err := sca.Analyze(compileFuncByName(t, section3, "f3"))
	if err != nil {
		t.Fatal(err)
	}
	if w := e3.ResolveWrite(in); !w.Equal(props.NewFieldSet(0)) {
		t.Errorf("W_f3 = %v, want {0}", w)
	}
}

func TestWhileLoopReduce(t *testing.T) {
	src := `
reduce emitAll(g) {
	n := g.size()
	i := 0
	while i < n {
		r := g.at(i)
		emit r
		i := i + 1
	}
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("emitAll")
	group := []record.Record{{record.Int(1)}, {record.Int(2)}, {record.Int(3)}}
	out, err := collect(f, func(r *tac.Runner, emit func(record.Record) error) error {
		return r.Reduce(tac.Records(group), emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("emitted %d, want 3", len(out))
	}
	// SCA must see the unbounded loop emit.
	e, err := sca.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if e.EmitMax != props.Unbounded {
		t.Errorf("EmitMax = %d, want unbounded", e.EmitMax)
	}
}

func TestAggregates(t *testing.T) {
	src := `
reduce stats(g) {
	first := g.at(0)
	out := copy(first)
	out[2] = sum(g, 1)
	out[3] = count(g, 0)
	out[4] = max(g, 1) - min(g, 1)
	out[5] = avg(g, 1)
	emit out
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("stats")
	group := []record.Record{
		{record.Int(7), record.Int(10)},
		{record.Int(7), record.Int(20)},
	}
	out, err := collect(f, func(r *tac.Runner, emit func(record.Record) error) error {
		return r.Reduce(tac.Records(group), emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out[0]
	if r.Field(2).AsInt() != 30 || r.Field(3).AsInt() != 2 ||
		r.Field(4).AsInt() != 10 || r.Field(5).AsFloat() != 15 {
		t.Fatalf("stats = %v", r)
	}
}

func TestBinaryJoinAndStringOps(t *testing.T) {
	src := `
binary tag(l, r) {
	o := concat(l, r)
	name := l[0] . "-" . r[1]
	o[2] = name
	if name contains "x" {
		emit o
	}
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("tag")
	out, err := collect(f, func(r *tac.Runner, emit func(record.Record) error) error {
		return r.Binary(record.Record{record.String("ax")}, record.Record{record.Null, record.String("b")}, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Field(2).AsString() != "ax-b" {
		t.Fatalf("out = %v", out)
	}
	out, err = collect(f, func(r *tac.Runner, emit func(record.Record) error) error {
		return r.Binary(record.Record{record.String("a")}, record.Record{record.Null, record.String("b")}, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("filter failed: %v", out)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
map f(ir) {
	a := ir[0]
	b := ir[1]
	if (a > 0 && b > 0) || a == 99 {
		emit ir
	}
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("f")
	cases := []struct {
		a, b int64
		want int
	}{
		{1, 1, 1}, {1, -1, 0}, {-1, 1, 0}, {99, -5, 1}, {0, 0, 0},
	}
	for _, c := range cases {
		out, err := collectMap(f, record.Record{record.Int(c.a), record.Int(c.b)})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want {
			t.Errorf("f(%d,%d) emitted %d, want %d", c.a, c.b, len(out), c.want)
		}
	}
}

func TestIfElseChains(t *testing.T) {
	src := `
map classify(ir) {
	v := ir[0]
	out := copy(ir)
	if v < 10 {
		out[1] = 1
	} else if v < 100 {
		out[1] = 2
	} else {
		out[1] = 3
	}
	emit out
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("classify")
	for _, c := range []struct{ v, want int64 }{{5, 1}, {50, 2}, {500, 3}} {
		out, err := collectMap(f, record.Record{record.Int(c.v), record.Null})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Field(1).AsInt() != c.want {
			t.Errorf("classify(%d) = %v, want %d", c.v, out[0].Field(1), c.want)
		}
	}
}

func TestDynamicFieldAccessCompiles(t *testing.T) {
	src := `
map f(ir) {
	n := ir[0]
	v := ir[n]
	out := copy(ir)
	out[1] = v
	emit out
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("f")
	e, err := sca.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if !e.DynamicRead {
		t.Error("dynamic access must surface as DynamicRead in SCA")
	}
	out, err := collectMap(f, record.Record{record.Int(2), record.Null, record.Int(9)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Field(1).AsInt() != 9 {
		t.Fatalf("out = %v", out)
	}
}

func TestExplicitProjectionAndCopy(t *testing.T) {
	src := `
map project(ir) {
	out := new()
	out[0] = ir[0]
	emit out
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("project")
	e, err := sca.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	// The same-index copy must be recognized as an explicit copy, not a
	// read or a write — precision preserved through compilation.
	if e.Reads.Has(0) {
		t.Errorf("pure copy counted as read: %v", e.Reads)
	}
	if !e.Copies.Has(0) {
		t.Errorf("explicit copy missed: %v", e.Copies)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown kind", "widget f(x) { emit x }", "unknown function kind"},
		{"param count", "map f(a, b) { emit a }", "needs 1 parameter"},
		{"assign to param", "map f(ir) { ir := copy(ir) }", "cannot assign to parameter"},
		{"unknown fn", "map f(ir) { x := frob(ir) \n emit ir }", "unknown function"},
		{"bad method", "reduce f(g) { x := g.pop() \n return }", "unknown method"},
		{"record in expr", "map f(ir) { x := 1 + copy(ir) \n emit ir }", "bind it with :="},
		{"agg field dynamic", "reduce f(g) { n := g.size() \n x := sum(g, n) \n return }", "constant integer"},
		{"setfield dynamic", "map f(ir) { o := copy(ir) \n i := 1 \n o[i] = 2 \n emit o }", "constant integer"},
		{"unterminated", "map f(ir) { emit ir", "unterminated block"},
		{"empty", "  ", "no functions"},
		{"dup func", "map f(ir) { emit ir }\nmap f(ir) { emit ir }", "duplicate function"},
		{"lex error", "map f(ir) { x := @ }", "unexpected character"},
		{"bad string", "map f(ir) { x := \"abc }", "unterminated string"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

// TestGeneratedTACIsParseable: the textual form is stable under reparsing.
func TestGeneratedTACIsParseable(t *testing.T) {
	text, err := CompileToTAC(section3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tac.Parse(text); err != nil {
		t.Fatalf("generated TAC unparseable: %v\n%s", err, text)
	}
	for _, want := range []string{"func map f1($ir)", "copyrec", "getfield"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated TAC missing %q:\n%s", want, text)
		}
	}
}

// Property: for random inputs, the compiled f1∘f2∘f3 pipeline equals a
// direct Go implementation of the paper's semantics.
func TestQuickPipelineEquivalence(t *testing.T) {
	f1 := compileFuncByName(t, section3, "f1")
	f2 := compileFuncByName(t, section3, "f2")
	f3 := compileFuncByName(t, section3, "f3")

	prop := func(a, b int32) bool {
		in := record.Record{record.Int(int64(a)), record.Int(int64(b))}
		// Reference semantics.
		bb := int64(b)
		if bb < 0 {
			bb = -bb
		}
		var want []record.Record
		if int64(a) >= 0 {
			want = []record.Record{{record.Int(int64(a) + bb), record.Int(bb)}}
		}
		// Compiled pipeline.
		cur := []record.Record{in}
		for _, f := range []*tac.Func{f1, f2, f3} {
			var next []record.Record
			for _, r := range cur {
				out, err := collectMap(f, r)
				if err != nil {
					return false
				}
				next = append(next, out...)
			}
			cur = next
		}
		if len(cur) != len(want) {
			return false
		}
		for i := range cur {
			if !cur[i].Equal(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
