package sca

import (
	"strings"
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
)

// The Section 3 example, fields A=0, B=1. f1 redefines b, as the paper's
// three-address code does.
const paperExample = `
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		b := -b
		out[1] = b
	}
	emit out
}

map f2(ir) {
	a := ir[0]
	if a >= 0 {
		out := copy(ir)
		emit out
	}
}

map f3(ir) {
	a := ir[0]
	b := ir[1]
	out := copy(ir)
	out[0] = a + b
	emit out
}
`

func analyze(t *testing.T, src, name string) *props.Effect {
	t.Helper()
	p, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := p.Lookup(name)
	if !ok {
		t.Fatalf("no func %q", name)
	}
	e, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPaperSection3Properties checks that the analysis derives exactly the
// properties the paper states for the worked example: R_f1={B}, W_f1={B};
// R_f2={A}, W_f2=∅; A ∈ W_f3.
func TestPaperSection3Properties(t *testing.T) {
	in := []props.FieldSet{props.NewFieldSet(0, 1)}

	f1 := analyze(t, paperExample, "f1")
	if r := f1.ResolveRead(nil, in); !r.Equal(props.NewFieldSet(1)) {
		t.Errorf("R_f1 = %v, want {1}", r)
	}
	if w := f1.ResolveWrite(nil, in); !w.Equal(props.NewFieldSet(1)) {
		t.Errorf("W_f1 = %v, want {1}", w)
	}
	if !f1.EmitsExactlyOne() {
		t.Errorf("f1 emit bounds = [%d,%d], want [1,1]", f1.EmitMin, f1.EmitMax)
	}

	f2 := analyze(t, paperExample, "f2")
	if r := f2.ResolveRead(nil, in); !r.Equal(props.NewFieldSet(0)) {
		t.Errorf("R_f2 = %v, want {0}", r)
	}
	if w := f2.ResolveWrite(nil, in); w.Len() != 0 {
		t.Errorf("W_f2 = %v, want empty", w)
	}
	if f2.EmitMin != 0 || f2.EmitMax != 1 {
		t.Errorf("f2 emit bounds = [%d,%d], want [0,1]", f2.EmitMin, f2.EmitMax)
	}
	if !f2.CondReads.Equal(props.NewFieldSet(0)) {
		t.Errorf("f2 CondReads = %v, want {0}", f2.CondReads)
	}
	// KGP: f2 preserves key groups keyed (at least) on field 0.
	if !f2.KGP(props.NewFieldSet(0)) || f2.KGP(props.NewFieldSet(1)) {
		t.Error("f2 KGP should hold for key {0} and fail for {1}")
	}

	f3 := analyze(t, paperExample, "f3")
	if r := f3.ResolveRead(nil, in); !r.Equal(props.NewFieldSet(0, 1)) {
		t.Errorf("R_f3 = %v, want {0,1}", r)
	}
	if w := f3.ResolveWrite(nil, in); !w.Equal(props.NewFieldSet(0)) {
		t.Errorf("W_f3 = %v, want {0}", w)
	}

	// The ROC checks of Section 3: f1/f2 reorderable, f2/f3 and f1/f3 not.
	roc := func(a, b *props.Effect) bool {
		return props.ROC(a.ResolveRead(nil, in), a.ResolveWrite(nil, in), b.ResolveRead(nil, in), b.ResolveWrite(nil, in))
	}
	if !roc(f1, f2) {
		t.Error("f1/f2 must satisfy ROC")
	}
	if roc(f2, f3) {
		t.Error("f2/f3 must conflict on field 0")
	}
	if roc(f1, f3) {
		t.Error("f1/f3 must conflict on field 1")
	}
}

func TestPureCopyNotARead(t *testing.T) {
	// Copying a field to the same index of the output is not a read
	// (Definition 3: it cannot influence another attribute).
	src := `
map f(ir) {
	t := ir[2]
	out := new()
	out[2] = t
	emit out
}
`
	e := analyze(t, src, "f")
	if e.Reads.Has(2) {
		t.Errorf("pure copy counted as read: %v", e.Reads)
	}
	if !e.Copies.Has(2) {
		t.Errorf("explicit copy not detected: %v", e.Copies)
	}
	// With implicit projection, everything except the copy is written.
	in := []props.FieldSet{props.NewFieldSet(1, 2, 3)}
	if w := e.ResolveWrite(nil, in); !w.Equal(props.NewFieldSet(1, 3)) {
		t.Errorf("W = %v, want {1,3}", w)
	}
	if out := e.ResolveOutput(nil, in); !out.Equal(props.NewFieldSet(2)) {
		t.Errorf("out attrs = %v, want {2}", out)
	}
}

func TestCopyToDifferentIndexIsReadAndWrite(t *testing.T) {
	src := `
map f(ir) {
	t := ir[2]
	out := copy(ir)
	out[4] = t
	emit out
}
`
	e := analyze(t, src, "f")
	if !e.Reads.Has(2) {
		t.Error("cross-index move must read the source field")
	}
	if !e.Sets.Has(4) {
		t.Error("cross-index move must write the target field")
	}
}

func TestConditionallyModifiedCopyIsWrite(t *testing.T) {
	// f1's pattern: the stored temp has a non-getfield reaching def on one
	// path, so it is a modification, not a copy.
	e := analyze(t, paperExample, "f1")
	if e.Copies.Has(1) {
		t.Error("conditionally negated field misclassified as copy")
	}
	if !e.Sets.Has(1) {
		t.Error("conditionally negated field must be in Sets")
	}
}

func TestExplicitProjection(t *testing.T) {
	src := `
map f(ir) {
	out := copy(ir)
	out[3] = null
	emit out
}
`
	e := analyze(t, src, "f")
	if !e.Projects.Has(3) {
		t.Errorf("null setfield must be an explicit projection: %v", e.Projects)
	}
	in := []props.FieldSet{props.NewFieldSet(1, 3)}
	if w := e.ResolveWrite(nil, in); !w.Equal(props.NewFieldSet(3)) {
		t.Errorf("W = %v, want {3}", w)
	}
	if out := e.ResolveOutput(nil, in); !out.Equal(props.NewFieldSet(1)) {
		t.Errorf("out = %v, want {1}", out)
	}
}

func TestBothConstructorsImplicitProjectionWins(t *testing.T) {
	// Section 5: "If both constructors are used in different code paths,
	// implicit projection is the safe choice." Both branch orders, and a
	// join that is not the emit itself: the definition that reaches the
	// join last must still reach the emit.
	for _, c := range []struct {
		src  string
		want props.FieldSet // W: every input attr, plus the one set after the join
	}{{`
map f(ir) {
	a := ir[0]
	if a > 0 {
		out := copy(ir)
	} else {
		out := new()
	}
	emit out
}`, props.NewFieldSet(0, 1)}, {`
map f(ir) {
	a := ir[0]
	if a > 0 {
		out := new()
	} else {
		out := copy(ir)
	}
	out[2] = a
	emit out
}`, props.NewFieldSet(0, 1, 2)}} {
		e := analyze(t, c.src, "f")
		if e.CopiesParam[0] {
			t.Errorf("mixed constructors must resolve to implicit projection:%s", c.src)
		}
		in := []props.FieldSet{props.NewFieldSet(0, 1)}
		if w := e.ResolveWrite(nil, in); !w.Equal(c.want) {
			t.Errorf("W = %v, want %v:%s", w, c.want, c.src)
		}
	}
}

func TestTwoEmitsDifferentConstructors(t *testing.T) {
	src := `
map f(ir) {
	c := copy(ir)
	emit c
	n := new()
	n[9] = 1
	emit n
}
`
	e := analyze(t, src, "f")
	if e.CopiesParam[0] {
		t.Error("an emit from newrec forbids the implicit-copy claim")
	}
	if e.EmitMin != 2 || e.EmitMax != 2 {
		t.Errorf("emit bounds = [%d,%d], want [2,2]", e.EmitMin, e.EmitMax)
	}
}

func TestEmitParamDirectly(t *testing.T) {
	src := `
map f(ir) {
	emit ir
}
`
	e := analyze(t, src, "f")
	if !e.CopiesParam[0] {
		t.Error("emitting the input is an implicit copy")
	}
	if w := e.ResolveWrite(nil, []props.FieldSet{props.NewFieldSet(0, 1)}); w.Len() != 0 {
		t.Errorf("identity map writes nothing, got %v", w)
	}
	if !e.EmitsExactlyOne() {
		t.Error("identity map emits exactly one")
	}
}

func TestEmitBoundsBranching(t *testing.T) {
	// One path emits twice, the other zero times.
	src := `
map f(ir) {
	a := ir[0]
	if a >= 0 {
		out := copy(ir)
		emit out
		emit out
	}
}
`
	e := analyze(t, src, "f")
	if e.EmitMin != 0 || e.EmitMax != 2 {
		t.Errorf("emit bounds = [%d,%d], want [0,2]", e.EmitMin, e.EmitMax)
	}
}

func TestEmitBoundsLoopUnbounded(t *testing.T) {
	src := `
reduce f(g) {
	n := g.size()
	i := 0
	while i < n {
		r := g.at(i)
		out := copy(r)
		emit out
		i := i + 1
	}
}
`
	e := analyze(t, src, "f")
	if e.EmitMin != 0 || e.EmitMax != props.Unbounded {
		t.Errorf("emit bounds = [%d,%d], want [0,unbounded]", e.EmitMin, e.EmitMax)
	}
	// The loop-emitted records copy the group input.
	if !e.CopiesParam[0] {
		t.Error("records copied from groupget must count as implicit copy of the input")
	}
}

func TestReduceAggregateProperties(t *testing.T) {
	src := `
reduce sumB(g) {
	first := g.at(0)
	out := copy(first)
	out[2] = sum(g, 1)
	emit out
}
`
	e := analyze(t, src, "sumB")
	if !e.Reads.Has(1) {
		t.Errorf("aggregate source field must be read: %v", e.Reads)
	}
	if !e.Sets.Has(2) {
		t.Errorf("aggregate target must be written: %v", e.Sets)
	}
	if !e.CopiesParam[0] {
		t.Error("copy of a group member is an implicit copy")
	}
	if !e.EmitsExactlyOne() {
		t.Errorf("emit bounds = [%d,%d]", e.EmitMin, e.EmitMax)
	}
	in := []props.FieldSet{props.NewFieldSet(0, 1)}
	if w := e.ResolveWrite(nil, in); !w.Equal(props.NewFieldSet(2)) {
		t.Errorf("W = %v, want {2} (the appended aggregate)", w)
	}
}

func TestUnusedAggregateNotRead(t *testing.T) {
	src := `
reduce f(g) {
	s := sum(g, 1)
	r := g.at(0)
	emit r
}
`
	e := analyze(t, src, "f")
	if e.Reads.Has(1) {
		t.Error("unused aggregate result must not count as a read")
	}
}

func TestDeadGetFieldNotRead(t *testing.T) {
	src := `
map f(ir) {
	t := ir[3]
	out := copy(ir)
	emit out
}
`
	e := analyze(t, src, "f")
	if e.Reads.Has(3) {
		t.Error("getfield with unused temp must not be a read")
	}
}

func TestDynamicFieldAccess(t *testing.T) {
	src := `
map f(ir) {
	n := ir[0]
	v := ir[n]
	out := copy(ir)
	out[1] = v
	emit out
}
`
	e := analyze(t, src, "f")
	if !e.DynamicRead {
		t.Error("dynamic access must set DynamicRead")
	}
	// Resolution covers the whole input.
	in := []props.FieldSet{props.NewFieldSet(0, 1, 2, 3)}
	if r := e.ResolveRead(nil, in); !r.Equal(props.NewFieldSet(0, 1, 2, 3)) {
		t.Errorf("R = %v, want all", r)
	}
	// The index-feeding field is read.
	if !e.Reads.Has(0) {
		t.Errorf("index source field must be read: %v", e.Reads)
	}
}

func TestBinaryConcatEffect(t *testing.T) {
	src := `
match join(l, r) {
	o := concat(l, r)
	emit o
}
`
	e := analyze(t, src, "join")
	if !e.CopiesParam[0] || !e.CopiesParam[1] {
		t.Errorf("concat must copy both params: %v", e.CopiesParam)
	}
	if !e.EmitsExactlyOne() {
		t.Error("plain concat join emits exactly one")
	}
}

func TestBinaryCopyOneSide(t *testing.T) {
	src := `
match leftOnly(l, r) {
	o := copy(l)
	emit o
}
`
	e := analyze(t, src, "leftOnly")
	if !e.CopiesParam[0] || e.CopiesParam[1] {
		t.Errorf("CopiesParam = %v, want [true,false]", e.CopiesParam)
	}
	in := []props.FieldSet{props.NewFieldSet(0, 1), props.NewFieldSet(2, 3)}
	if w := e.ResolveWrite(nil, in); !w.Equal(props.NewFieldSet(2, 3)) {
		t.Errorf("W = %v, want the projected right side", w)
	}
}

func TestCondReadsTransitive(t *testing.T) {
	src := `
map f(ir) {
	a := ir[4]
	b := a * 2
	c := b + 1
	if c <= 10 {
		out := copy(ir)
		emit out
	}
}
`
	e := analyze(t, src, "f")
	if !e.CondReads.Has(4) {
		t.Errorf("transitive condition dependency missed: %v", e.CondReads)
	}
	if !e.KGP(props.NewFieldSet(4, 9)) || e.KGP(props.NewFieldSet(9)) {
		t.Error("KGP must follow the condition-read subset rule")
	}
}

func TestNoEmitFunction(t *testing.T) {
	src := `
map sink(ir) {
	a := ir[0]
	b := a + 1
	return
}
`
	e := analyze(t, src, "sink")
	if e.EmitMin != 0 || e.EmitMax != 0 {
		t.Errorf("emit bounds = [%d,%d], want [0,0]", e.EmitMin, e.EmitMax)
	}
	if e.CopiesParam[0] {
		t.Error("a non-emitting UDF copies nothing")
	}
}

func TestUnreachableCodeIgnored(t *testing.T) {
	src := `
map f(ir) {
	out := copy(ir)
	emit out
	return
	t := ir[5]
	u := t + 1
	out[5] = u
	emit out
}
`
	e := analyze(t, src, "f")
	if e.Reads.Has(5) || e.Sets.Has(5) {
		t.Error("unreachable code must not contribute properties")
	}
	if !e.EmitsExactlyOne() {
		t.Errorf("bounds = [%d,%d]", e.EmitMin, e.EmitMax)
	}
}

func TestKGPGroupUniformFilterViaSCA(t *testing.T) {
	// The Map/Reduce interplay of Section 4.2.2: a Map that filters on the
	// Reduce key satisfies KGP; one that filters on another field does not.
	src := `
map keyFilter(ir) {
	k := ir[0]
	m := k % 2
	if m != 0 {
		emit ir
	}
}

map valueFilter(ir) {
	v := ir[1]
	m := v % 2
	if m != 0 {
		emit ir
	}
}
`
	kf := analyze(t, src, "keyFilter")
	vf := analyze(t, src, "valueFilter")
	key := props.NewFieldSet(0)
	if !kf.KGP(key) {
		t.Error("key filter must satisfy KGP for key {0}")
	}
	if vf.KGP(key) {
		t.Error("value filter must not satisfy KGP for key {0}")
	}
}

func TestEffectStringSmoke(t *testing.T) {
	e := analyze(t, paperExample, "f1")
	s := e.String()
	for _, want := range []string{"R=", "emit=[1,1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("Effect.String() = %q missing %q", s, want)
		}
	}
}

// TestStaticFieldIndexRange: field sets are dense bitsets, so a static
// index that no global record could have is an analysis error, not a set
// member — a UDF must not be able to size (or underflow) one. The error
// names the PactScript line of the access.
func TestStaticFieldIndexRange(t *testing.T) {
	for _, body := range []string{
		"a := ir[70000]\n\temit ir",
		"out := copy(ir)\n\tout[1000000000] = 1\n\temit out",
	} {
		p, err := frontend.Compile("map f(ir) {\n\t" + body + "\n}\n")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(p.Funcs["f"]); err == nil || !strings.Contains(err.Error(), "out of range") || !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("%q: Analyze error = %v, want a field-index range error at a line", body, err)
		}
	}
	// PactScript compiles ir[-1] to a dynamic access, so a negative static
	// index is built directly. It carries no line, so the error names the
	// instruction.
	p, err := tac.NewProgram([]*tac.Func{{Name: "f", Kind: tac.KindMap, Params: []string{"$ir"}, Body: []*tac.Instr{
		{Op: tac.OpGetField, Dst: "$a", Rec: "$ir", Field: -1},
		{Op: tac.OpEmit, Rec: "$ir"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(p.Funcs["f"]); err == nil || !strings.Contains(err.Error(), "instr 0: field index -1 out of range") {
		t.Errorf("getfield $ir -1: Analyze error = %v, want a field-index range error at instr 0", err)
	}
	p, err = frontend.Compile("map f(ir) {\n\ta := ir[65535]\n\tout := copy(ir)\n\tout[0] = a\n\temit out\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Analyze(p.Funcs["f"])
	if err != nil || !e.Reads.Has(props.MaxField) {
		t.Errorf("MaxField itself must analyze: %v, reads %v", err, e)
	}
}

// TestHandBuiltFuncIsAnError: Analyze reads the CFG tac.NewProgram derives,
// so a Func that did not go through it is an error, not a panic.
func TestHandBuiltFuncIsAnError(t *testing.T) {
	f := &tac.Func{Name: "f", Kind: tac.KindMap, Params: []string{"$ir"}, Body: []*tac.Instr{
		{Op: tac.OpEmit, Rec: "$ir"}, {Op: tac.OpReturn},
	}}
	if _, err := Analyze(f); err == nil || err.Error() != "func f was not built by tac.NewProgram" {
		t.Errorf("Analyze error = %v, want the NewProgram error", err)
	}
}
