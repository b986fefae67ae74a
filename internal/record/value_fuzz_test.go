package record

import (
	"math"
	"testing"
	"unsafe"
)

// identical reports whether a and b are the same value bit for bit: same
// kind, a float's exact bits (so NaN payloads and −0 count), every other
// payload by Equal.
func identical(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Equal(b)
}

// FuzzValue is the property test of Value's layout. From an int, a float's
// bits, a string and a bool it builds values with every constructor —
// strings also as sub-slices of one another, so they share bytes — and
// checks that each accessor returns what its constructor was given, that
// Compare is a total order that agrees with Equal and Hash, and that the
// wire codec and ColBatch both hand every value back unchanged.
func FuzzValue(f *testing.F) {
	if size := unsafe.Sizeof(Value{}); size != 24 {
		f.Fatalf("Value is %d bytes, want 24", size)
	}
	f.Add(int64(0), uint64(0), "", false)
	f.Add(int64(1<<53+1), math.Float64bits(0x1p53), "ab", true)
	f.Add(int64(-1), math.Float64bits(math.NaN()), "ac", false)
	f.Add(int64(7), uint64(0xfff8000000000000), "κλειδί", true) // a negative NaN
	f.Add(int64(math.MinInt64), math.Float64bits(-0x1p63), "\x00\xff", false)
	f.Add(int64(0), math.Float64bits(math.Copysign(0, -1)), "a", true)
	f.Add(int64(math.MaxInt64), math.Float64bits(math.Inf(1)), "tok tok", false)
	f.Add(int64(2), math.Float64bits(2.5), "alpha", true)
	f.Fuzz(func(t *testing.T, i int64, bits uint64, s string, b bool) {
		fl := math.Float64frombits(bits)
		if Int(i).AsInt() != i || math.Float64bits(Float(fl).AsFloat()) != bits ||
			String(s).AsString() != s || Bool(b).AsBool() != b || !Null.IsNull() {
			t.Fatalf("an accessor does not return its constructor's argument (%d, %#x, %q, %v)", i, bits, s, b)
		}
		vs := []Value{
			Null, Int(i), Int(-i), Int(int64(fl)), Float(fl), Float(-fl), Float(float64(i)),
			Float(math.NaN()), String(s), String(s[len(s)/2:]), String(s[:len(s)/2]), Bool(b), Bool(!b),
		}
		for _, x := range vs {
			for _, y := range vs {
				c := x.Compare(y)
				if c != -y.Compare(x) {
					t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", x, y, c, y, x, y.Compare(x))
				}
				if x.Equal(y) != (c == 0) {
					t.Fatalf("Equal(%v, %v) = %v but Compare = %d", x, y, x.Equal(y), c)
				}
				if c == 0 && x.Hash() != y.Hash() {
					t.Fatalf("%v %v and %v %v compare equal but hash apart", x.Kind(), x, y.Kind(), y)
				}
				for _, z := range vs {
					if c <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
						t.Fatalf("Compare is not transitive: %v <= %v <= %v but %v > %v", x, y, z, x, z)
					}
				}
			}
		}

		r := Record(vs)
		buf := r.AppendEncoded(nil)
		if len(buf) != r.EncodedSize() {
			t.Fatalf("%v encodes to %d bytes, EncodedSize says %d", r, len(buf), r.EncodedSize())
		}
		recs, err := DecodeRecords(nil, buf, 1)
		if err != nil || len(recs[0]) != len(r) {
			t.Fatalf("decode of %v: %v, %v", r, recs, err)
		}
		got := recs[0]
		cb := NewColBatch(DefaultBatchCap)
		cb.Append(r[len(r)/2:])
		cb.Append(r)
		for f, v := range r {
			if !identical(got[f], v) {
				t.Fatalf("field %d: decoded %v %v, encoded %v %v", f, got[f].Kind(), got[f], v.Kind(), v)
			}
			if c := cb.Field(1, f); !identical(c, v) {
				t.Fatalf("field %d: ColBatch holds %v %v, appended %v %v", f, c.Kind(), c, v.Kind(), v)
			}
		}
	})
}
