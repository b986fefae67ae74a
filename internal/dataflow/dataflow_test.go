package dataflow

import (
	"strings"
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
)

var testUDFs = frontend.MustCompile(`
map id(ir) {
	emit ir
}
match jn(l, r) {
	o := concat(l, r)
	emit o
}
reduce rd(g) {
	r := g.at(0)
	emit r
}
cogroup cg(g1, g2) {
	n := g1.size()
	if n != 0 {
		r := g1.at(0)
		emit r
	}
}
`)

func u(name string) *tac.Func {
	f, ok := testUDFs.Lookup(name)
	if !ok {
		panic(name)
	}
	return f
}

func TestAttrRegistry(t *testing.T) {
	f := NewFlow()
	a := f.DeclareAttr("x")
	b := f.DeclareAttr("y")
	if a == b {
		t.Fatal("attrs must get distinct indices")
	}
	if f.DeclareAttr("x") != a {
		t.Error("re-declare must return the same index")
	}
	if f.Attr("y") != b {
		t.Error("Attr lookup wrong")
	}
	if got, ok := f.AttrIndex("z"); ok || got != 0 {
		t.Error("AttrIndex of unknown must report !ok")
	}
	if f.AttrName(a) != "x" {
		t.Error("AttrName wrong")
	}
	if !strings.HasPrefix(f.AttrName(99), "attr") {
		t.Error("AttrName out of range should synthesize a name")
	}
	if f.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d", f.NumAttrs())
	}
}

func TestAttrPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Attr on unknown name must panic")
		}
	}()
	NewFlow().Attr("nope")
}

func TestOpKindProperties(t *testing.T) {
	cases := []struct {
		k      OpKind
		inputs int
		keyed  bool
	}{
		{KindSource, 0, false},
		{KindSink, 1, false},
		{KindMap, 1, false},
		{KindReduce, 1, true},
		{KindCross, 2, false},
		{KindMatch, 2, true},
		{KindCoGroup, 2, true},
	}
	for _, c := range cases {
		if c.k.NumInputs() != c.inputs {
			t.Errorf("%v inputs = %d, want %d", c.k, c.k.NumInputs(), c.inputs)
		}
		if c.k.IsKeyed() != c.keyed {
			t.Errorf("%v keyed = %v", c.k, c.k.IsKeyed())
		}
		if c.k.IsBinary() != (c.inputs == 2) {
			t.Errorf("%v binary mismatch", c.k)
		}
	}
}

func buildValid() *Flow {
	f := NewFlow()
	l := f.Source("L", []string{"a", "b"}, Hints{Records: 10, AvgWidthBytes: 18})
	r := f.Source("R", []string{"c"}, Hints{Records: 10, AvgWidthBytes: 9})
	m := f.Map("M", u("id"), l, Hints{})
	j := f.Match("J", u("jn"), []string{"a"}, []string{"c"}, m, r, Hints{})
	red := f.Reduce("Red", u("rd"), []string{"a"}, j, Hints{})
	f.SetSink("out", red)
	return f
}

func TestValidateOK(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("no sink", func(t *testing.T) {
		f := NewFlow()
		f.Source("S", []string{"a"}, Hints{})
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "no sink") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("missing UDF", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		m := f.Map("M", nil, s, Hints{})
		f.SetSink("out", m)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "no UDF") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("wrong UDF kind", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		m := f.Map("M", u("rd"), s, Hints{}) // reduce UDF on a Map
		f.SetSink("out", m)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("empty key", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		r := f.Reduce("R", u("rd"), nil, s, Hints{})
		r.Keys = [][]int{{}}
		f.SetSink("out", r)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "key") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unequal key arity", func(t *testing.T) {
		f := NewFlow()
		l := f.Source("L", []string{"lk", "lv"}, Hints{})
		r := f.Source("R", []string{"rk"}, Hints{})
		j := f.Match("J", u("jn"), []string{"lk", "lv"}, []string{"rk"}, l, r, Hints{})
		f.SetSink("out", j)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "keys 2 attributes of input 0 against 1 of input 1") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("dag not tree", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		m1 := f.Map("M1", u("id"), s, Hints{})
		j := f.Match("J", u("jn"), []string{"a"}, []string{"a"}, m1, m1, Hints{})
		f.SetSink("out", j)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "tree") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestDeriveEffects(t *testing.T) {
	f := buildValid()
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	for _, op := range f.Operators() {
		if op.IsUDFOp() && op.Effect == nil {
			t.Errorf("%s has no effect after DeriveEffects", op)
		}
	}
}

func TestDeriveEffectsKeepManual(t *testing.T) {
	f := buildValid()
	var m *Operator
	for _, op := range f.Operators() {
		if op.Name == "M" {
			m = op
		}
	}
	custom := props.NewEffect(1)
	custom.Reads.Add(42)
	m.SetEffect(custom)
	if err := f.DeriveEffects(true); err != nil {
		t.Fatal(err)
	}
	if !m.Effect.Reads.Has(42) {
		t.Error("keepManual must preserve the manual annotation")
	}
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	if m.Effect.Reads.Has(42) {
		t.Error("keepManual=false must overwrite the manual annotation")
	}
}

func TestKeySets(t *testing.T) {
	f := buildValid()
	var j *Operator
	for _, op := range f.Operators() {
		if op.Name == "J" {
			j = op
		}
	}
	if j.KeySet(0).Len() != 1 || j.KeySet(1).Len() != 1 {
		t.Error("join key sets wrong")
	}
	if j.KeySet(5).Len() != 0 {
		t.Error("out-of-range key set must be empty")
	}
}

func TestSourceEffectSynthetic(t *testing.T) {
	f := NewFlow()
	s := f.Source("S", []string{"a", "b"}, Hints{})
	if s.Effect == nil || !s.Effect.EmitsExactlyOne() {
		t.Error("sources must carry a synthetic exactly-one effect")
	}
	if s.SourceAttrs.Len() != 2 {
		t.Errorf("SourceAttrs = %v", s.SourceAttrs)
	}
	if s.IsUDFOp() {
		t.Error("source is not a UDF op")
	}
}

func TestCoGroupConstruction(t *testing.T) {
	f := NewFlow()
	l := f.Source("L", []string{"a"}, Hints{})
	r := f.Source("R", []string{"b"}, Hints{})
	cg := f.CoGroup("CG", u("cg"), []string{"a"}, []string{"b"}, l, r, Hints{})
	f.SetSink("out", cg)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorString(t *testing.T) {
	f := buildValid()
	for _, op := range f.Operators() {
		if op.String() == "" {
			t.Error("empty operator rendering")
		}
	}
}

// TestCombinerDeclaration covers SetCombiner: acceptance on Reduce,
// rejection on other kinds and on wrong TAC kinds, and SCA derivation of
// the combiner's effect in DeriveEffects.
func TestCombinerDeclaration(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		r := f.Reduce("R", u("rd"), []string{"a"}, s, Hints{})
		r.SetCombiner(u("rd"))
		f.SetSink("out", r)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := f.DeriveEffects(false); err != nil {
			t.Fatal(err)
		}
		if r.CombinerEffect == nil {
			t.Error("DeriveEffects left CombinerEffect nil")
		}
	})
	t.Run("combiner on a Map", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		m := f.Map("M", u("id"), s, Hints{})
		m.Combiner = u("rd")
		f.SetSink("out", m)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "only valid on Reduce") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("wrong combiner kind", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		r := f.Reduce("R", u("rd"), []string{"a"}, s, Hints{})
		r.SetCombiner(u("id")) // map UDF as combiner
		f.SetSink("out", r)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("manual combiner effect kept", func(t *testing.T) {
		f := NewFlow()
		s := f.Source("S", []string{"a"}, Hints{})
		r := f.Reduce("R", u("rd"), []string{"a"}, s, Hints{})
		r.SetCombiner(u("rd"))
		f.SetSink("out", r)
		manual := props.NewEffect(1)
		manual.EmitMin, manual.EmitMax = 1, 1
		r.CombinerEffect = manual
		if err := f.DeriveEffects(true); err != nil {
			t.Fatal(err)
		}
		if r.CombinerEffect != manual {
			t.Error("DeriveEffects(keepManual) overwrote the manual combiner effect")
		}
	})
}

// TestFlowDefLayout: sources' attributes in order, a shared attribute at
// its first index, then the extra attributes; one source listing an
// attribute twice is refused even when an earlier source declared it.
func TestFlowDefLayout(t *testing.T) {
	def := FlowDef{
		Sources: []SourceDef{{Name: "L", Attrs: []string{"k", "lv"}}, {Name: "R", Attrs: []string{"rv", "k"}}},
		Attrs:   []string{"out", "lv"},
	}
	got, err := def.Layout()
	if want := "k lv rv out"; err != nil || strings.Join(got, " ") != want {
		t.Fatalf("layout %v, %v; want %s", got, err, want)
	}
	def.Sources[1].Attrs = append(def.Sources[1].Attrs, "k")
	if _, err := def.Layout(); err == nil || err.Error() != `dataflow: source "R" lists attribute "k" twice` {
		t.Fatalf("err = %v", err)
	}
}
