package sca

import (
	"strings"
	"testing"

	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
)

// The Section 3 example, fields A=0, B=1.
const paperExample = `
func map f1($ir) {
	$b := getfield $ir 1
	$or := copyrec $ir
	if $b >= 0 goto L16
	$b := neg $b
	setfield $or 1 $b
L16: emit $or
	return
}

func map f2($ir) {
	$a := getfield $ir 0
	if $a < 0 goto L25
	$or := copyrec $ir
	emit $or
L25: return
}

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

func analyze(t *testing.T, src, name string) *props.Effect {
	t.Helper()
	p, err := tac.Parse(src)
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
	if r := f1.ResolveRead(in); !r.Equal(props.NewFieldSet(1)) {
		t.Errorf("R_f1 = %v, want {1}", r)
	}
	if w := f1.ResolveWrite(in); !w.Equal(props.NewFieldSet(1)) {
		t.Errorf("W_f1 = %v, want {1}", w)
	}
	if !f1.EmitsExactlyOne() {
		t.Errorf("f1 emit bounds = [%d,%d], want [1,1]", f1.EmitMin, f1.EmitMax)
	}

	f2 := analyze(t, paperExample, "f2")
	if r := f2.ResolveRead(in); !r.Equal(props.NewFieldSet(0)) {
		t.Errorf("R_f2 = %v, want {0}", r)
	}
	if w := f2.ResolveWrite(in); w.Len() != 0 {
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
	if r := f3.ResolveRead(in); !r.Equal(props.NewFieldSet(0, 1)) {
		t.Errorf("R_f3 = %v, want {0,1}", r)
	}
	if w := f3.ResolveWrite(in); !w.Equal(props.NewFieldSet(0)) {
		t.Errorf("W_f3 = %v, want {0}", w)
	}

	// The ROC checks of Section 3: f1/f2 reorderable, f2/f3 and f1/f3 not.
	roc := func(a, b *props.Effect) bool {
		return props.ROC(a.ResolveRead(in), a.ResolveWrite(in), b.ResolveRead(in), b.ResolveWrite(in))
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
func map f($ir) {
	$t := getfield $ir 2
	$or := newrec
	setfield $or 2 $t
	emit $or
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
	if w := e.ResolveWrite(in); !w.Equal(props.NewFieldSet(1, 3)) {
		t.Errorf("W = %v, want {1,3}", w)
	}
	if out := e.ResolveOutput(in); !out.Equal(props.NewFieldSet(2)) {
		t.Errorf("out attrs = %v, want {2}", out)
	}
}

func TestCopyToDifferentIndexIsReadAndWrite(t *testing.T) {
	src := `
func map f($ir) {
	$t := getfield $ir 2
	$or := copyrec $ir
	setfield $or 4 $t
	emit $or
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
func map f($ir) {
	$or := copyrec $ir
	setfield $or 3 null
	emit $or
}
`
	e := analyze(t, src, "f")
	if !e.Projects.Has(3) {
		t.Errorf("null setfield must be an explicit projection: %v", e.Projects)
	}
	in := []props.FieldSet{props.NewFieldSet(1, 3)}
	if w := e.ResolveWrite(in); !w.Equal(props.NewFieldSet(3)) {
		t.Errorf("W = %v, want {3}", w)
	}
	if out := e.ResolveOutput(in); !out.Equal(props.NewFieldSet(1)) {
		t.Errorf("out = %v, want {1}", out)
	}
}

func TestBothConstructorsImplicitProjectionWins(t *testing.T) {
	// Section 5: "If both constructors are used in different code paths,
	// implicit projection is the safe choice."
	src := `
func map f($ir) {
	$a := getfield $ir 0
	if $a > 0 goto COPY
	$or := newrec
	goto OUT
COPY: $or := copyrec $ir
OUT: emit $or
}
`
	e := analyze(t, src, "f")
	if e.CopiesParam[0] {
		t.Error("mixed constructors must resolve to implicit projection")
	}
	in := []props.FieldSet{props.NewFieldSet(0, 1)}
	if w := e.ResolveWrite(in); !w.Equal(props.NewFieldSet(0, 1)) {
		t.Errorf("W = %v, want all input attrs", w)
	}
}

func TestTwoEmitsDifferentConstructors(t *testing.T) {
	src := `
func map f($ir) {
	$c := copyrec $ir
	emit $c
	$n := newrec
	setfield $n 9 1
	emit $n
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
func map f($ir) {
	emit $ir
}
`
	e := analyze(t, src, "f")
	if !e.CopiesParam[0] {
		t.Error("emitting the input is an implicit copy")
	}
	if w := e.ResolveWrite([]props.FieldSet{props.NewFieldSet(0, 1)}); w.Len() != 0 {
		t.Errorf("identity map writes nothing, got %v", w)
	}
	if !e.EmitsExactlyOne() {
		t.Error("identity map emits exactly one")
	}
}

func TestEmitBoundsBranching(t *testing.T) {
	// One path emits twice, the other zero times.
	src := `
func map f($ir) {
	$a := getfield $ir 0
	if $a < 0 goto SKIP
	$or := copyrec $ir
	emit $or
	emit $or
SKIP: return
}
`
	e := analyze(t, src, "f")
	if e.EmitMin != 0 || e.EmitMax != 2 {
		t.Errorf("emit bounds = [%d,%d], want [0,2]", e.EmitMin, e.EmitMax)
	}
}

func TestEmitBoundsLoopUnbounded(t *testing.T) {
	src := `
func reduce f($g) {
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
func reduce sumB($g) {
	$first := groupget $g 0
	$or := copyrec $first
	$s := agg sum $g 1
	setfield $or 2 $s
	emit $or
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
	if w := e.ResolveWrite(in); !w.Equal(props.NewFieldSet(2)) {
		t.Errorf("W = %v, want {2} (the appended aggregate)", w)
	}
}

func TestUnusedAggregateNotRead(t *testing.T) {
	src := `
func reduce f($g) {
	$s := agg sum $g 1
	$r := groupget $g 0
	emit $r
}
`
	e := analyze(t, src, "f")
	if e.Reads.Has(1) {
		t.Error("unused aggregate result must not count as a read")
	}
}

func TestDeadGetFieldNotRead(t *testing.T) {
	src := `
func map f($ir) {
	$t := getfield $ir 3
	$or := copyrec $ir
	emit $or
}
`
	e := analyze(t, src, "f")
	if e.Reads.Has(3) {
		t.Error("getfield with unused temp must not be a read")
	}
}

func TestDynamicFieldAccess(t *testing.T) {
	src := `
func map f($ir) {
	$n := getfield $ir 0
	$v := getfield $ir $n
	$or := copyrec $ir
	setfield $or 1 $v
	emit $or
}
`
	e := analyze(t, src, "f")
	if !e.DynamicRead {
		t.Error("dynamic access must set DynamicRead")
	}
	// Resolution covers the whole input.
	in := []props.FieldSet{props.NewFieldSet(0, 1, 2, 3)}
	if r := e.ResolveRead(in); !r.Equal(props.NewFieldSet(0, 1, 2, 3)) {
		t.Errorf("R = %v, want all", r)
	}
	// The index-feeding field is read.
	if !e.Reads.Has(0) {
		t.Errorf("index source field must be read: %v", e.Reads)
	}
}

func TestBinaryConcatEffect(t *testing.T) {
	src := `
func binary join($l, $r) {
	$o := concat $l $r
	emit $o
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
func binary leftOnly($l, $r) {
	$o := copyrec $l
	emit $o
}
`
	e := analyze(t, src, "leftOnly")
	if !e.CopiesParam[0] || e.CopiesParam[1] {
		t.Errorf("CopiesParam = %v, want [true,false]", e.CopiesParam)
	}
	in := []props.FieldSet{props.NewFieldSet(0, 1), props.NewFieldSet(2, 3)}
	if w := e.ResolveWrite(in); !w.Equal(props.NewFieldSet(2, 3)) {
		t.Errorf("W = %v, want the projected right side", w)
	}
}

func TestCondReadsTransitive(t *testing.T) {
	src := `
func map f($ir) {
	$a := getfield $ir 4
	$b := $a * 2
	$c := $b + 1
	if $c > 10 goto SKIP
	$or := copyrec $ir
	emit $or
SKIP: return
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
func map sink($ir) {
	$a := getfield $ir 0
	$b := $a + 1
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
func map f($ir) {
	$or := copyrec $ir
	emit $or
	return
	$t := getfield $ir 5
	$u := $t + 1
	setfield $or 5 $u
	emit $or
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

func TestAnalyzeProgram(t *testing.T) {
	p, err := tac.Parse(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	effects, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(effects) != 3 {
		t.Fatalf("analyzed %d funcs", len(effects))
	}
	for name, e := range effects {
		if e == nil {
			t.Errorf("%s: nil effect", name)
		}
	}
}

func TestReachingDefsChains(t *testing.T) {
	p, err := tac.Parse(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := p.Lookup("f1")
	g := tac.BuildCFG(f1)
	rd := ComputeReachingDefs(f1, g)

	// At the setfield (instr 4), $b has two reaching defs: the getfield
	// (instr 0)? No: the setfield is only reached through the neg at
	// instr 3, which kills the getfield def. USE-DEF must be exactly {3}.
	defs := rd.UseDef(4, "$b")
	if len(defs) != 1 {
		t.Fatalf("USE-DEF(setfield,$b) = %v, want exactly the neg def", defs)
	}
	if _, ok := defs[3]; !ok {
		t.Fatalf("USE-DEF(setfield,$b) = %v, want {3}", defs)
	}
	// At the branch (instr 2), $b's def is the getfield (instr 0).
	defs = rd.UseDef(2, "$b")
	if _, ok := defs[0]; !ok || len(defs) != 1 {
		t.Fatalf("USE-DEF(if,$b) = %v, want {0}", defs)
	}
	// DEF-USE of the getfield covers the branch and the neg.
	uses := rd.DefUse(0, "$b")
	if len(uses) != 2 {
		t.Fatalf("DEF-USE(getfield,$b) = %v, want 2 uses", uses)
	}
	// Parameters reach their uses.
	if _, ok := rd.UseDef(0, "$ir")[ParamDef]; !ok {
		t.Error("parameter def must reach instruction 0")
	}
}

func TestKGPGroupUniformFilterViaSCA(t *testing.T) {
	// The Map/Reduce interplay of Section 4.2.2: a Map that filters on the
	// Reduce key satisfies KGP; one that filters on another field does not.
	src := `
func map keyFilter($ir) {
	$k := getfield $ir 0
	$m := $k % 2
	if $m == 0 goto SKIP
	emit $ir
SKIP: return
}

func map valueFilter($ir) {
	$v := getfield $ir 1
	$m := $v % 2
	if $m == 0 goto SKIP
	emit $ir
SKIP: return
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
// member — a UDF must not be able to size (or underflow) one.
func TestStaticFieldIndexRange(t *testing.T) {
	for _, body := range []string{
		"$a := getfield $ir -1\n\temit $ir",
		"$a := getfield $ir 70000\n\temit $ir",
		"$or := copyrec $ir\n\tsetfield $or 1000000000 1\n\temit $or",
	} {
		p, err := tac.Parse("func map f($ir) {\n\t" + body + "\n\treturn\n}\n")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(p.Funcs["f"]); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%q: Analyze error = %v, want a field-index range error", body, err)
		}
	}
	p, err := tac.Parse("func map f($ir) {\n\t$a := getfield $ir 65535\n\t$or := copyrec $ir\n\tsetfield $or 0 $a\n\temit $or\n\treturn\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Analyze(p.Funcs["f"])
	if err != nil || !e.Reads.Has(props.MaxField) {
		t.Errorf("MaxField itself must analyze: %v, reads %v", err, e)
	}
}
