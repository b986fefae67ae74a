package optimizer

import (
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
)

// mapEffect builds a manual Map annotation: reads r, writes w (as explicit
// sets), emits exactly one record, implicit copy.
func mapEffect(reads, writes []int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(reads...)
	e.CondReads = props.FieldSet{}
	e.Sets = props.NewFieldSet(writes...)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// filterEffect builds a manual annotation for a filter Map on the given
// fields.
func filterEffect(condFields ...int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(condFields...)
	e.CondReads = props.NewFieldSet(condFields...)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 0, 1
	return e
}

// concatJoinEffect is a Match UDF that concatenates both inputs.
func concatJoinEffect() *props.Effect {
	e := props.NewEffect(2)
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// aggregateEffect is a Reduce UDF that copies a group member and appends an
// aggregate of aggField into newField.
func aggregateEffect(aggField, newField int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(aggField)
	e.CondReads = props.FieldSet{}
	e.Sets = props.NewFieldSet(newField)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// identityMapUDF is a trivially valid TAC body for operators whose behaviour
// is supplied via manual annotations in these tests.
var identityMapUDF = frontend.MustCompile(`
map id(ir) {
	emit ir
}
match idj(l, r) {
	o := concat(l, r)
	emit o
}
reduce idr(g) {
	r := g.at(0)
	emit r
}
cogroup idcg(g1, g2) {
	n := g1.size()
	if n != 0 {
		r := g1.at(0)
		emit r
	}
}
`)

func udf(name string) *tac.Func {
	f, ok := identityMapUDF.Lookup(name)
	if !ok {
		panic("missing test udf " + name)
	}
	return f
}

func keys(t *testing.T, alts []*Tree) []string {
	t.Helper()
	out := make([]string, len(alts))
	for i, a := range alts {
		out[i] = a.String()
	}
	return out
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestSection6Example reproduces the worked enumeration example of
// Section 6: Src → Map1 → Map2 → Map3 where all pairs reorder except
// Map2/Map3; exactly three alternatives result.
func TestSection6Example(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("Src", []string{"a", "b", "c"}, dataflow.Hints{Records: 100, AvgWidthBytes: 27})
	m1 := f.Map("Map1", udf("id"), src, dataflow.Hints{})
	m2 := f.Map("Map2", udf("id"), m1, dataflow.Hints{})
	m3 := f.Map("Map3", udf("id"), m2, dataflow.Hints{})
	f.SetSink("Out", m3)

	// Manual annotations: Map2 writes field 2, Map3 reads field 2 — they
	// conflict; all other pairs are ROC.
	m1.SetEffect(mapEffect([]int{0}, nil))
	m2.SetEffect(mapEffect(nil, []int{2}))
	m3.SetEffect(mapEffect([]int{2}, nil))

	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	want := []string{
		"Out(Map3(Map2(Map1(Src))))",
		"Out(Map3(Map1(Map2(Src))))",
		"Out(Map1(Map3(Map2(Src))))",
	}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d plans %v, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !contains(got, w) {
			t.Errorf("missing plan %s in %v", w, got)
		}
	}
}

// TestSection3ExampleViaSCA runs the full pipeline on the paper's Section 3
// UDFs: SCA-derived effects must allow exactly the f1/f2 swap.
func TestSection3ExampleViaSCA(t *testing.T) {
	prog := frontend.MustCompile(`
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
`)
	get := func(n string) *tac.Func { f, _ := prog.Lookup(n); return f }

	f := dataflow.NewFlow()
	src := f.Source("I", []string{"A", "B"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 18})
	o1 := f.Map("f1", get("f1"), src, dataflow.Hints{})
	o2 := f.Map("f2", get("f2"), o1, dataflow.Hints{Selectivity: 0.5})
	o3 := f.Map("f3", get("f3"), o2, dataflow.Hints{})
	f.SetSink("O", o3)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}

	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	want := []string{"O(f3(f2(f1(I))))", "O(f3(f1(f2(I))))"}
	if len(got) != 2 {
		t.Fatalf("enumerated %v, want exactly the two Section 3 orders", got)
	}
	for _, w := range want {
		if !contains(got, w) {
			t.Errorf("missing %s in %v", w, got)
		}
	}
}

// buildJoinFlow builds Sink(J(R, S)) with a filter Map on one side's chain:
// Sink(J(M(R), S)).
func buildJoinFlow(t *testing.T, filterAttr string) (*dataflow.Flow, *Tree) {
	t.Helper()
	f := dataflow.NewFlow()
	r := f.Source("R", []string{"rk", "ra"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 18})
	s := f.Source("S", []string{"sk", "sa"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 18})
	j := f.Match("J", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, dataflow.Hints{KeyCardinality: 100})
	m := f.Map("M", udf("id"), j, dataflow.Hints{Selectivity: 0.1})
	f.SetSink("Out", m)
	j.SetEffect(concatJoinEffect())
	m.SetEffect(filterEffect(f.Attr(filterAttr)))
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

// TestMapPushBelowMatch: a filter over one side's attribute descends into
// that side only (Theorem 3).
func TestMapPushBelowMatch(t *testing.T) {
	_, tree := buildJoinFlow(t, "ra")
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	if len(got) != 2 {
		t.Fatalf("got %v, want original + left push", got)
	}
	if !contains(got, "Out(J(M(R), S))") {
		t.Errorf("missing left push in %v", got)
	}
	if contains(got, "Out(J(R, M(S)))") {
		t.Errorf("filter on R attributes must not descend into S: %v", got)
	}
}

// TestMapOnJoinKeyPushesBothSides is intentionally about a filter on the
// left join key: it reads rk only, so it may descend into the left side but
// not the right (rk is not an S attribute).
func TestMapOnJoinKeyPushesLeft(t *testing.T) {
	_, tree := buildJoinFlow(t, "rk")
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	if !contains(got, "Out(J(M(R), S))") {
		t.Errorf("key filter must push into the key's side: %v", got)
	}
	if contains(got, "Out(J(R, M(S)))") {
		t.Errorf("key filter must not descend into the other side: %v", got)
	}
}

// TestMapWritingJoinKeyBlocked: a Map that writes the join key conflicts
// with the Match (the f' transformation puts keys in the Match's read set).
func TestMapWritingJoinKeyBlocked(t *testing.T) {
	f := dataflow.NewFlow()
	r := f.Source("R", []string{"rk", "ra"}, dataflow.Hints{Records: 10, AvgWidthBytes: 18})
	s := f.Source("S", []string{"sk"}, dataflow.Hints{Records: 10, AvgWidthBytes: 9})
	j := f.Match("J", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, dataflow.Hints{})
	m := f.Map("M", udf("id"), j, dataflow.Hints{})
	f.SetSink("Out", m)
	j.SetEffect(concatJoinEffect())
	m.SetEffect(mapEffect(nil, []int{f.Attr("rk")})) // writes the join key
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	alts := NewEnumerator().Enumerate(tree)
	if len(alts) != 1 {
		t.Fatalf("key-writing map must not move: %v", keys(t, alts))
	}
}

// TestInvariantGrouping reproduces the Q15 rewrite (Section 4.3.2): a
// Reduce above a PK-FK Match descends into the FK side when its key covers
// the match key.
func TestInvariantGrouping(t *testing.T) {
	f := dataflow.NewFlow()
	s := f.Source("supplier", []string{"s_key", "s_name"}, dataflow.Hints{Records: 100, AvgWidthBytes: 20})
	l := f.Source("lineitem", []string{"l_suppkey", "l_revenue"}, dataflow.Hints{Records: 10000, AvgWidthBytes: 18})
	j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, l,
		dataflow.Hints{KeyCardinality: 100})
	j.FKSide = dataflow.FKRight // lineitem holds the foreign key
	rev := f.DeclareAttr("total_revenue")
	red := f.Reduce("R", udf("idr"), []string{"l_suppkey"}, j, dataflow.Hints{KeyCardinality: 100})
	f.SetSink("Out", red)
	j.SetEffect(concatJoinEffect())
	red.SetEffect(aggregateEffect(f.Attr("l_revenue"), rev))

	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	if len(got) != 2 {
		t.Fatalf("got %v, want original + aggregation push-down", got)
	}
	if !contains(got, "Out(J(supplier, R(lineitem)))") {
		t.Errorf("missing invariant-grouping rewrite in %v", got)
	}
}

// TestInvariantGroupingRequiresFK: without the FK annotation the rewrite is
// invalid and must not be enumerated.
func TestInvariantGroupingRequiresFK(t *testing.T) {
	f := dataflow.NewFlow()
	s := f.Source("supplier", []string{"s_key"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	l := f.Source("lineitem", []string{"l_suppkey", "l_rev"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 18})
	j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, l, dataflow.Hints{})
	rev := f.DeclareAttr("total")
	red := f.Reduce("R", udf("idr"), []string{"l_suppkey"}, j, dataflow.Hints{})
	f.SetSink("Out", red)
	j.SetEffect(concatJoinEffect())
	red.SetEffect(aggregateEffect(f.Attr("l_rev"), rev))

	tree, _ := FromFlow(f)
	alts := NewEnumerator().Enumerate(tree)
	if len(alts) != 1 {
		t.Fatalf("without FK annotation, got %v", keys(t, alts))
	}
}

// TestInvariantGroupingRequiresKeyCover: the match key on the FK side must
// be contained in the reduce key.
func TestInvariantGroupingRequiresKeyCover(t *testing.T) {
	f := dataflow.NewFlow()
	s := f.Source("supplier", []string{"s_key"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	l := f.Source("lineitem", []string{"l_suppkey", "l_part", "l_rev"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 27})
	j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, l, dataflow.Hints{})
	j.FKSide = dataflow.FKRight
	rev := f.DeclareAttr("total")
	// Reduce groups on l_part, which does not cover the match key.
	red := f.Reduce("R", udf("idr"), []string{"l_part"}, j, dataflow.Hints{})
	f.SetSink("Out", red)
	j.SetEffect(concatJoinEffect())
	red.SetEffect(aggregateEffect(f.Attr("l_rev"), rev))

	tree, _ := FromFlow(f)
	alts := NewEnumerator().Enumerate(tree)
	if len(alts) != 1 {
		t.Fatalf("reduce key not covering match key: got %v", keys(t, alts))
	}
}

// TestJoinRotation checks the Lemma 1 rotation on a three-way join chain.
func TestJoinRotation(t *testing.T) {
	f := dataflow.NewFlow()
	r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	s := f.Source("S", []string{"sk", "st"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
	tt := f.Source("T", []string{"tk"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	j1 := f.Match("J1", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, dataflow.Hints{KeyCardinality: 50})
	j2 := f.Match("J2", udf("idj"), []string{"st"}, []string{"tk"}, j1, tt, dataflow.Hints{KeyCardinality: 50})
	f.SetSink("Out", j2)
	j1.SetEffect(concatJoinEffect())
	j2.SetEffect(concatJoinEffect())

	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	if !contains(got, "Out(J2(J1(R, S), T))") {
		t.Errorf("missing original in %v", got)
	}
	if !contains(got, "Out(J1(R, J2(S, T)))") {
		t.Errorf("missing rotation in %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("got %d plans %v, want 2", len(got), got)
	}
}

// TestJoinCrossRotation: when the outer join's key lives in the inner
// join's left subtree, the second rotation form applies: the join order of
// S and T against R flips.
func TestJoinCrossRotation(t *testing.T) {
	f := dataflow.NewFlow()
	r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 10, AvgWidthBytes: 9})
	s := f.Source("S", []string{"sk", "st"}, dataflow.Hints{Records: 10, AvgWidthBytes: 18})
	tt := f.Source("T", []string{"tk"}, dataflow.Hints{Records: 10, AvgWidthBytes: 9})
	j1 := f.Match("J1", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, dataflow.Hints{})
	j2 := f.Match("J2", udf("idj"), []string{"rk"}, []string{"tk"}, j1, tt, dataflow.Hints{})
	f.SetSink("Out", j2)
	j1.SetEffect(concatJoinEffect())
	j2.SetEffect(concatJoinEffect())

	tree, _ := FromFlow(f)
	alts := NewEnumerator().Enumerate(tree)
	got := keys(t, alts)
	if !contains(got, "Out(J1(J2(R, T), S))") {
		t.Errorf("missing cross rotation in %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want original + cross rotation", got)
	}
}

// TestJoinRotationBlockedByAttrUse: a join whose key spans both subtrees of
// the inner join cannot rotate in either form.
func TestJoinRotationBlockedByAttrUse(t *testing.T) {
	f := dataflow.NewFlow()
	r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 10, AvgWidthBytes: 9})
	s := f.Source("S", []string{"sk", "st"}, dataflow.Hints{Records: 10, AvgWidthBytes: 18})
	tt := f.Source("T", []string{"ta", "tb"}, dataflow.Hints{Records: 10, AvgWidthBytes: 18})
	j1 := f.Match("J1", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, dataflow.Hints{})
	// J2's left key uses attributes from both R and S: no rotation can
	// separate them.
	j2 := f.Match("J2", udf("idj"), []string{"rk", "st"}, []string{"ta", "tb"}, j1, tt, dataflow.Hints{})
	f.SetSink("Out", j2)
	j1.SetEffect(concatJoinEffect())
	j2.SetEffect(concatJoinEffect())

	tree, _ := FromFlow(f)
	alts := NewEnumerator().Enumerate(tree)
	if len(alts) != 1 {
		t.Fatalf("rotation must be blocked, got %v", keys(t, alts))
	}
}

// TestReduceReduceManualOnly: two Reduce operators reorder only with the
// all-or-none manual annotation (KGPGroup), never via SCA-derived bounds.
func TestReduceReduceManualOnly(t *testing.T) {
	build := func(annotate bool) []*Tree {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "a", "b"}, dataflow.Hints{Records: 100, AvgWidthBytes: 27})
		r1 := f.Reduce("R1", udf("idr"), []string{"k"}, src, dataflow.Hints{})
		r2 := f.Reduce("R2", udf("idr"), []string{"k"}, r1, dataflow.Hints{})
		f.SetSink("Out", r2)
		e1 := props.NewEffect(1)
		e1.Reads = props.NewFieldSet(f.Attr("a"))
		e1.CondReads = props.NewFieldSet(f.Attr("k"))
		e1.CopiesParam[0] = true
		e1.EmitMin, e1.EmitMax = 0, props.Unbounded
		e2 := props.NewEffect(1)
		e2.Reads = props.NewFieldSet(f.Attr("b"))
		e2.CondReads = props.NewFieldSet(f.Attr("k"))
		e2.CopiesParam[0] = true
		e2.EmitMin, e2.EmitMax = 0, props.Unbounded
		if annotate {
			e1.AllOrNone = true
			e2.AllOrNone = true
		}
		r1.SetEffect(e1)
		r2.SetEffect(e2)
		tree, err := FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		return NewEnumerator().Enumerate(tree)
	}
	if got := build(false); len(got) != 1 {
		t.Errorf("without annotation: %d plans, want 1", len(got))
	}
	if got := build(true); len(got) != 2 {
		t.Errorf("with all-or-none annotation: %d plans, want 2", len(got))
	}
}

// TestMapReduceKGP: a Map filter reorders with a Reduce only when filtering
// on the grouping key (Theorem 2).
func TestMapReduceKGP(t *testing.T) {
	build := func(filterAttr string) int {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
		m := f.Map("M", udf("id"), src, dataflow.Hints{})
		sum := f.DeclareAttr("sum")
		r := f.Reduce("R", udf("idr"), []string{"k"}, m, dataflow.Hints{})
		f.SetSink("Out", r)
		m.SetEffect(filterEffect(f.Attr(filterAttr)))
		r.SetEffect(aggregateEffect(f.Attr("v"), sum))
		tree, err := FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		return len(NewEnumerator().Enumerate(tree))
	}
	if got := build("k"); got != 2 {
		t.Errorf("key filter: %d plans, want 2", got)
	}
	if got := build("v"); got != 1 {
		t.Errorf("value filter: %d plans, want 1 (KGP violated)", got)
	}
}

// TestMapPushBelowCoGroup: pushing a Map below a CoGroup needs attribute
// confinement AND key-group preservation (the tagged-union argument of
// Section 4.3.2): a filter on the grouping key descends, a filter on a
// non-key field of the same side does not.
func TestMapPushBelowCoGroup(t *testing.T) {
	build := func(filterAttr string) []string {
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
		r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
		cg := f.CoGroup("CG", udf("idcg"), []string{"lk"}, []string{"rk"}, l, r,
			dataflow.Hints{KeyCardinality: 10})
		m := f.Map("M", udf("id"), cg, dataflow.Hints{Selectivity: 0.5})
		f.SetSink("Out", m)
		e := props.NewEffect(2)
		e.CopiesParam[0] = true
		e.EmitMin, e.EmitMax = 0, 1
		e.CondReads = props.FieldSet{}
		cg.SetEffect(e)
		m.SetEffect(filterEffect(f.Attr(filterAttr)))
		tree, err := FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		return keys(t, NewEnumerator().Enumerate(tree))
	}
	// Filter on the left grouping key: may descend into the left side.
	got := build("lk")
	if !contains(got, "Out(CG(M(L), R))") {
		t.Errorf("key filter must descend below the CoGroup: %v", got)
	}
	// Filter on a non-key left attribute: KGP fails, no descent.
	got = build("lv")
	if len(got) != 1 {
		t.Errorf("non-key filter must stay above the CoGroup: %v", got)
	}
}

// TestMapPushBelowCross: Theorem 3 — a Map confined to one side's
// attributes may pass a Cartesian product without any KGP requirement,
// even when it filters on a non-key field.
func TestMapPushBelowCross(t *testing.T) {
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"la"}, dataflow.Hints{Records: 50, AvgWidthBytes: 9})
	r := f.Source("R", []string{"ra"}, dataflow.Hints{Records: 50, AvgWidthBytes: 9})
	cr := f.Cross("X", udf("idj"), l, r, dataflow.Hints{})
	m := f.Map("M", udf("id"), cr, dataflow.Hints{Selectivity: 0.2})
	f.SetSink("Out", m)
	cr.SetEffect(concatJoinEffect())
	m.SetEffect(filterEffect(f.Attr("ra")))
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	got := keys(t, NewEnumerator().Enumerate(tree))
	if !contains(got, "Out(X(L, M(R)))") {
		t.Errorf("filter must descend into the Cross's right side: %v", got)
	}
	if contains(got, "Out(X(M(L), R))") {
		t.Errorf("filter on R attributes must not descend into L: %v", got)
	}
}

// TestInvariantGroupingPKSideUniqueness: the invariant-grouping rewrite is
// blocked when the Match's PK side is itself a join (which could duplicate
// keys), and allowed when it is a duplication-free chain.
func TestInvariantGroupingPKSideUniqueness(t *testing.T) {
	build := func(pkSideJoined bool) []string {
		f := dataflow.NewFlow()
		s := f.Source("dim", []string{"d_key", "d_x"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
		aux := f.Source("aux", []string{"a_key"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
		l := f.Source("fact", []string{"f_dim", "f_val"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 18})
		total := f.DeclareAttr("total")

		pk := s
		if pkSideJoined {
			j0 := f.Match("J0", udf("idj"), []string{"d_key"}, []string{"a_key"}, s, aux, dataflow.Hints{})
			j0.SetEffect(concatJoinEffect())
			pk = j0
		} else {
			// Keep the aux source in the flow via a side branch? Trees
			// forbid that; instead just skip aux entirely.
			_ = aux
		}
		j := f.Match("J", udf("idj"), []string{"d_key"}, []string{"f_dim"}, pk, l, dataflow.Hints{})
		j.FKSide = dataflow.FKRight
		j.SetEffect(concatJoinEffect())
		red := f.Reduce("R", udf("idr"), []string{"f_dim"}, j, dataflow.Hints{KeyCardinality: 100})
		red.SetEffect(aggregateEffect(f.Attr("f_val"), total))
		f.SetSink("Out", red)

		tree, err := FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		return keys(t, NewEnumerator().Enumerate(tree))
	}
	hasPush := func(plans []string) bool {
		for _, p := range plans {
			if strings.Contains(p, "R(fact)") {
				return true
			}
		}
		return false
	}
	if got := build(false); !hasPush(got) {
		t.Errorf("source PK side: aggregation push missing in %v", got)
	}
	// With the PK side itself a join, the push must be suppressed (the
	// derived side could duplicate keys); other rewrites, e.g. join
	// rotations, may still fire.
	if got := build(true); hasPush(got) {
		t.Errorf("joined PK side: aggregation push must be blocked, got %v", got)
	}
}

// TestAttrsInvariantAcrossAlternatives: every alternative of a flow
// produces the same output attribute set — a structural soundness check.
func TestAttrsInvariantAcrossAlternatives(t *testing.T) {
	_, tree := buildJoinFlow(t, "ra")
	alts := NewEnumerator().Enumerate(tree)
	want := tree.Attrs()
	for _, a := range alts {
		if !a.Attrs().Equal(want) {
			t.Errorf("plan %s output attrs %v != %v", a, a.Attrs(), want)
		}
	}
}

// TestFactorialPlanSpace: four freely reorderable Maps yield 4! = 24 plans,
// each expanded exactly once thanks to the memo table.
func TestFactorialPlanSpace(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"a", "b", "c", "d"}, dataflow.Hints{Records: 10, AvgWidthBytes: 36})
	prev := src
	for i, n := range []string{"M1", "M2", "M3", "M4"} {
		m := f.Map(n, udf("id"), prev, dataflow.Hints{})
		m.SetEffect(mapEffect([]int{i}, nil))
		prev = m
	}
	f.SetSink("Out", prev)
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEnumerator()
	alts := e.Enumerate(tree)
	if len(alts) != 24 {
		t.Fatalf("enumerated %d plans, want 24", len(alts))
	}
	if e.Stats.Expanded != 24 {
		t.Errorf("expanded %d plans, want exactly 24 (memo dedup)", e.Stats.Expanded)
	}
	if e.Stats.MemoHits == 0 {
		t.Error("expected memo hits on the factorial space")
	}
}

// TestRuleAblation: disabling a rule family shrinks the plan space.
func TestRuleAblation(t *testing.T) {
	_, tree := buildJoinFlow(t, "ra")
	full := NewEnumerator().Enumerate(tree)
	noPush := &Enumerator{Rules: &RuleSet{UnaryUnary: true, Rotations: true}}
	reduced := noPush.Enumerate(tree)
	if len(reduced) >= len(full) {
		t.Errorf("disabling pushes: %d plans, want fewer than %d", len(reduced), len(full))
	}
	if len(reduced) != 1 {
		t.Errorf("only the original should remain, got %d", len(reduced))
	}
}

// TestEnumerationDeterministic: repeated enumerations yield identical
// orderings.
func TestEnumerationDeterministic(t *testing.T) {
	_, tree := buildJoinFlow(t, "ra")
	a := strings.Join(keys(t, NewEnumerator().Enumerate(tree)), ";")
	b := strings.Join(keys(t, NewEnumerator().Enumerate(tree)), ";")
	if a != b {
		t.Errorf("non-deterministic enumeration:\n%s\n%s", a, b)
	}
}

func TestEstimatorBasics(t *testing.T) {
	f, tree := buildJoinFlow(t, "ra")
	est := NewEstimator(f)
	// Sources: 1000 records each; join keyCard 100 -> 1000*1000/100 = 10000;
	// filter 0.1 -> 1000.
	if got := est.Records(tree); got != 1000 {
		t.Errorf("root records = %g, want 1000", got)
	}
	if est.Width(tree) <= 0 || est.Bytes(tree) <= 0 {
		t.Error("width/bytes must be positive")
	}
}

func TestEstimatorFKJoin(t *testing.T) {
	f := dataflow.NewFlow()
	s := f.Source("S", []string{"sk"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 5000, AvgWidthBytes: 18})
	j := f.Match("J", udf("idj"), []string{"sk"}, []string{"lk"}, s, l, dataflow.Hints{})
	j.FKSide = dataflow.FKRight
	j.SetEffect(concatJoinEffect())
	f.SetSink("Out", j)
	tree, _ := FromFlow(f)
	est := NewEstimator(f)
	if got := est.Records(tree); got != 5000 {
		t.Errorf("FK join cardinality = %g, want 5000 (FK side)", got)
	}
}

// TestPhysicalPartitioningReuse reproduces the Section 7.3 Q15 discussion:
// with the Reduce below the Match on the same key, the Match reuses the
// Reduce's partitioning (forward shipping); with the Reduce above, the
// optimizer broadcasts the small side.
func TestPhysicalPartitioningReuse(t *testing.T) {
	f := dataflow.NewFlow()
	s := f.Source("supplier", []string{"s_key", "s_name"}, dataflow.Hints{Records: 100, AvgWidthBytes: 40})
	l := f.Source("lineitem", []string{"l_suppkey", "l_rev"}, dataflow.Hints{Records: 100000, AvgWidthBytes: 18})
	rev := f.DeclareAttr("total")
	red := f.Reduce("R", udf("idr"), []string{"l_suppkey"}, l, dataflow.Hints{KeyCardinality: 100})
	j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, red,
		dataflow.Hints{KeyCardinality: 100})
	j.FKSide = dataflow.FKRight
	f.SetSink("Out", j)
	red.SetEffect(aggregateEffect(f.Attr("l_rev"), rev))
	j.SetEffect(concatJoinEffect())

	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(f)
	po := NewPhysicalOptimizer(est, 8)
	plan := po.Optimize(tree)
	if plan == nil {
		t.Fatal("no plan")
	}
	// Find the Match node: its reduce-side shipping must be forward
	// (partitioning reuse).
	var match *PhysPlan
	var walk func(p *PhysPlan)
	walk = func(p *PhysPlan) {
		if p.Op.Name == "J" {
			match = p
		}
		for _, in := range p.Inputs {
			walk(in)
		}
	}
	walk(plan)
	if match == nil {
		t.Fatal("match not found in plan")
	}
	reduceSide := -1
	for i, in := range match.Inputs {
		if in.Op.Name == "R" {
			reduceSide = i
		}
	}
	if reduceSide == -1 {
		t.Fatal("reduce not a direct match input")
	}
	if match.Ship[reduceSide] != ShipForward {
		t.Errorf("reduce-side shipping = %v, want forward (interesting property reuse)\n%s",
			match.Ship[reduceSide], plan.Indent())
	}
}

// TestRankAllOrdering: RankAllNet returns plans sorted by cost with 1-based
// ranks.
func TestRankAllOrdering(t *testing.T) {
	f, tree := buildJoinFlow(t, "ra")
	est := NewEstimator(f)
	ranked := RankAllNet(tree, est, 4, 0, NetProfile{})
	if len(ranked) != 2 {
		t.Fatalf("ranked %d plans", len(ranked))
	}
	if ranked[0].Rank != 1 || ranked[1].Rank != 2 {
		t.Error("ranks must be 1-based ascending")
	}
	if ranked[0].Cost > ranked[1].Cost {
		t.Error("plans must be sorted by ascending cost")
	}
	// The pushed-down filter must be the cheaper plan.
	if ranked[0].Tree.String() != "Out(J(M(R), S))" {
		t.Errorf("best plan = %s, want filter pushdown", ranked[0].Tree)
	}
}

// TestSharedSubplansConsistent: memoizing sub-flow plans across
// alternatives (the Section 6 integration) must not change any plan's cost
// relative to a fresh optimizer per alternative.
func TestSharedSubplansConsistent(t *testing.T) {
	f := dataflow.NewFlow()
	r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 500, AvgWidthBytes: 9})
	s := f.Source("S", []string{"sk", "st"}, dataflow.Hints{Records: 500, AvgWidthBytes: 18})
	tt := f.Source("T", []string{"tk"}, dataflow.Hints{Records: 500, AvgWidthBytes: 9})
	j1 := f.Match("J1", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, dataflow.Hints{KeyCardinality: 100})
	j2 := f.Match("J2", udf("idj"), []string{"st"}, []string{"tk"}, j1, tt, dataflow.Hints{KeyCardinality: 100})
	m := f.Map("M", udf("id"), j2, dataflow.Hints{Selectivity: 0.3})
	f.SetSink("Out", m)
	j1.SetEffect(concatJoinEffect())
	j2.SetEffect(concatJoinEffect())
	m.SetEffect(filterEffect(f.Attr("st")))

	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	alts := NewEnumerator().Enumerate(tree)
	if len(alts) < 3 {
		t.Fatalf("need a multi-plan space, got %d", len(alts))
	}
	est := NewEstimator(f)
	shared := NewPhysicalOptimizer(est, 4)
	for _, a := range alts {
		cs := shared.Optimize(a).Cost.Total()
		cf := NewPhysicalOptimizer(est, 4).Optimize(a).Cost.Total()
		if cs != cf {
			t.Errorf("plan %s: shared cost %g != fresh cost %g", a, cs, cf)
		}
	}
}

// TestInterestingPropsAblation: disabling interesting-property tracking
// must never produce a cheaper plan.
func TestInterestingPropsAblation(t *testing.T) {
	f := dataflow.NewFlow()
	s := f.Source("supplier", []string{"s_key"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	l := f.Source("lineitem", []string{"l_suppkey", "l_rev"}, dataflow.Hints{Records: 100000, AvgWidthBytes: 18})
	rev := f.DeclareAttr("total")
	red := f.Reduce("R", udf("idr"), []string{"l_suppkey"}, l, dataflow.Hints{KeyCardinality: 100})
	j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, red, dataflow.Hints{KeyCardinality: 100})
	f.SetSink("Out", j)
	red.SetEffect(aggregateEffect(f.Attr("l_rev"), rev))
	j.SetEffect(concatJoinEffect())
	tree, _ := FromFlow(f)
	est := NewEstimator(f)

	with := NewPhysicalOptimizer(est, 8)
	without := NewPhysicalOptimizer(est, 8)
	without.UseInterestingProps = false
	cw := with.Optimize(tree).Cost.Total()
	cwo := without.Optimize(tree).Cost.Total()
	if cw > cwo {
		t.Errorf("interesting properties made the plan worse: %g > %g", cw, cwo)
	}
}
