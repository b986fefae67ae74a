package record

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Int(7), KindInt},
		{Float(2.5), KindFloat},
		{String("x"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int.AsInt = %d", got)
	}
	if got := Float(2.9).AsInt(); got != 2 {
		t.Errorf("Float.AsInt = %d, want 2", got)
	}
	if got := Bool(true).AsInt(); got != 1 {
		t.Errorf("Bool.AsInt = %d, want 1", got)
	}
	if got := Int(3).AsFloat(); got != 3.0 {
		t.Errorf("Int.AsFloat = %g", got)
	}
	if got := String("hi").AsString(); got != "hi" {
		t.Errorf("String.AsString = %q", got)
	}
	if !Int(1).AsBool() || Int(0).AsBool() {
		t.Error("Int truthiness wrong")
	}
	if Null.AsBool() || !String("x").AsBool() || String("").AsBool() {
		t.Error("Null/String truthiness wrong")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Int(0).Equal(Null) {
		t.Error("Int(0) should not equal Null")
	}
	if !Null.Equal(Null) {
		t.Error("Null should equal Null")
	}
	if String("2").Equal(Int(2)) {
		t.Error("String should not equal Int")
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{Null, Bool(false), Bool(true), Int(-3), Float(-2.5), Int(0), Float(7.5), Int(8), String("a"), String("b")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := sign(i - j)
			// Equal-valued numerics at different indices would break this,
			// but the list is strictly increasing.
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueHashEqualConsistency(t *testing.T) {
	if Int(5).Hash() != Float(5.0).Hash() {
		t.Error("equal numeric values must hash equally")
	}
	if Int(5).Hash() == Int(6).Hash() {
		t.Error("suspicious hash collision on small ints")
	}
}

func TestRecordFieldAccess(t *testing.T) {
	r := Record{Int(1), String("a")}
	if !r.Field(0).Equal(Int(1)) {
		t.Error("Field(0) wrong")
	}
	if !r.Field(5).IsNull() {
		t.Error("out-of-range field must be Null")
	}
	if !r.Field(-1).IsNull() {
		t.Error("negative field must be Null")
	}
}

func TestRecordEqualAndCompare(t *testing.T) {
	a := Record{Int(1), Float(2)}
	b := Record{Float(1), Int(2)}
	if !a.Equal(b) {
		t.Error("numerically equal records must be Equal")
	}
	if a.Compare(b) != 0 {
		t.Error("Compare of equal records must be 0")
	}
	c := Record{Int(1)}
	if a.Equal(c) {
		t.Error("different arity records must differ")
	}
	if a.Compare(c) <= 0 {
		t.Error("longer record with equal prefix must order after")
	}
}

func TestRecordProjectMergeClone(t *testing.T) {
	r := Record{Int(1), Int(2), Int(3)}
	p := r.Project([]int{2, 0})
	if !p.Equal(Record{Int(3), Int(1)}) {
		t.Errorf("Project = %v", p)
	}
	left := Record{Int(1), Null, Null}
	right := Record{Null, String("x"), Null, Int(9)}
	m := left.Merge(right)
	want := Record{Int(1), String("x"), Null, Int(9)}
	if !m.Equal(want) {
		t.Errorf("Merge = %v, want %v", m, want)
	}
	cl := r.Clone()
	cl.SetField(0, Int(99))
	if r.Field(0).AsInt() != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestDataSetBagEquality(t *testing.T) {
	d1 := DataSet{{Int(1), Int(2)}, {Int(3), Int(4)}}
	d2 := DataSet{{Int(3), Int(4)}, {Float(1), Float(2)}}
	if !d1.Equal(d2) {
		t.Error("bag equality must ignore order and numeric kind")
	}
	d3 := DataSet{{Int(1), Int(2)}, {Int(1), Int(2)}}
	d4 := DataSet{{Int(1), Int(2)}, {Int(3), Int(4)}}
	if d3.Equal(d4) {
		t.Error("multiplicity must matter")
	}
	if d3.Equal(DataSet{{Int(1), Int(2)}}) {
		t.Error("cardinality must matter")
	}
}

func TestEncodedSize(t *testing.T) {
	r := Record{Int(1), String("abc"), Null, Bool(true)}
	want := 4 + 9 + (1 + 4 + 3) + 1 + 2
	if got := r.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, want %d", got, want)
	}
	d := DataSet{r, r}
	if d.TotalSize() != 2*want {
		t.Errorf("TotalSize = %d", d.TotalSize())
	}
}

// Property: Value.Equal implies equal hashes (over int/float domain).
func TestQuickHashEqualConsistency(t *testing.T) {
	f := func(a int32) bool {
		return Int(int64(a)).Hash() == Float(float64(a)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Equal iff Compare==0 for ints.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge with an all-null record is identity.
func TestQuickMergeIdentity(t *testing.T) {
	f := func(xs []int64) bool {
		r := make(Record, len(xs))
		for i, x := range xs {
			r[i] = Int(x)
		}
		return r.Merge(NewRecord(len(xs))).Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: bag equality is invariant under reversal.
func TestQuickBagEqualityReversal(t *testing.T) {
	f := func(xs []int64) bool {
		d := make(DataSet, len(xs))
		for i, x := range xs {
			d[i] = Record{Int(x)}
		}
		rev := make(DataSet, len(xs))
		for i := range d {
			rev[i] = d[len(d)-1-i]
		}
		return d.Equal(rev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// numericEdges are ints and integral floats around ±2^53 and ±2^63, where
// comparing through float64 would round distinct values into one, plus
// zeros of both signs, infinities and NaNs of different bits.
func numericEdges() []Value {
	var vs []Value
	for d := int64(-3); d <= 3; d++ {
		vs = append(vs, Int(1<<53+d), Int(-1<<53+d), Int(math.MaxInt64-3+d), Int(math.MinInt64+3+d))
	}
	for _, c := range []float64{0x1p53, -0x1p53, 0x1p63, -0x1p63} {
		vs = append(vs, Float(c), Float(math.Nextafter(c, math.Inf(1))), Float(math.Nextafter(c, math.Inf(-1))))
	}
	vs = append(vs, Int(0), Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)))
	for _, f := range nans {
		vs = append(vs, Float(f))
	}
	return vs
}

// exactCompare is the oracle: both values converted to big.Float without
// rounding, and NaN below every number and equal to every NaN.
func exactCompare(a, b Value) int {
	switch an, bn := math.IsNaN(a.AsFloat()), math.IsNaN(b.AsFloat()); {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	exact := func(v Value) *big.Float {
		if v.Kind() == KindInt {
			return new(big.Float).SetInt64(v.AsInt())
		}
		return new(big.Float).SetFloat64(v.AsFloat())
	}
	return exact(a).Cmp(exact(b))
}

// TestNumericOrderExact pins the numeric order near the edges of float64's
// integer precision and at NaN: Compare agrees with exact arithmetic, Equal
// holds exactly when Compare is 0, and values that compare 0 hash equally —
// the property hash grouping and the hash join rely on to find a key's group.
func TestNumericOrderExact(t *testing.T) {
	vs := numericEdges()
	for _, a := range vs {
		for _, b := range vs {
			c := a.Compare(b)
			if want := exactCompare(a, b); c != want {
				t.Errorf("Compare(%v %v, %v %v) = %d, want %d", a.Kind(), a, b.Kind(), b, c, want)
			}
			if a.Equal(b) != (c == 0) {
				t.Errorf("Equal(%v %v, %v %v) = %v but Compare = %d", a.Kind(), a, b.Kind(), b, a.Equal(b), c)
			}
			if c == 0 && a.Hash() != b.Hash() {
				t.Errorf("%v %v and %v %v compare equal but hash apart", a.Kind(), a, b.Kind(), b)
			}
		}
	}
	if (DataSet{{Int(1 << 53)}}).Equal(DataSet{{Int(1<<53 + 1)}}) {
		t.Error("bags {2^53} and {2^53+1} compare equal")
	}
}
