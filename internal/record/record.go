// Package record implements the data model of Section 2.2 of the paper:
// a data set is an unordered list (bag) of records, and a record is an
// ordered tuple of values. The semantics of values is left to the
// user-defined functions that manipulate them.
//
// Records in this implementation are laid out over the plan's global record
// (Definition 1 in the paper): every attribute that any operator in the plan
// touches has a fixed global index, and fields that a particular data set
// does not carry are Null. This makes operator reordering trivially
// index-stable: a UDF compiled against global indices reads the same
// attribute no matter where in the plan it executes.
//
// Besides the value/record model the package provides the engine's two
// movement units: Batch, the fixed-capacity pooled container shuffles move
// records in, and the wire codec (AppendEncoded / DecodeRecord, the byte
// layout EncodedSize prices) that both the shuffle's byte accounting and
// the spill package's on-disk run format are denominated in.
package record

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind enumerates the runtime types a field value can take.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single field value. The zero Value is Null.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the absent value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. Floats are truncated; bools map to 0/1.
// Null and strings return 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return int64(v.f)
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsFloat returns the numeric payload as float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsString returns the string payload, or a rendering for other kinds.
func (v Value) AsString() string {
	switch v.kind {
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

// AsBool returns the truthiness of the value: false for Null, zero numbers,
// and the empty string.
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥"
	case KindInt:
		return fmt.Sprintf("%d", v.i)
	case KindFloat:
		return fmt.Sprintf("%g", v.f)
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindBool:
		return fmt.Sprintf("%t", v.b)
	default:
		return "?"
	}
}

// Equal implements value equality (paper Section 2.2: v1i = v2i). Numeric
// values compare across int/float kinds by exact numeric value, so for
// numerics Equal holds exactly when Compare reports 0 — but for NaN, which
// Equal matches to nothing and Compare to every number.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindInt:
			return v.i == o.i
		case KindFloat:
			return v.f == o.f
		case KindString:
			return v.s == o.s
		case KindBool:
			return v.b == o.b
		}
	}
	if v.isNumeric() && o.isNumeric() {
		// One int, one float: equal floats are necessary (and exclude NaN),
		// the exact comparison decides.
		return v.AsFloat() == o.AsFloat() && compareNumeric(v, o) == 0
	}
	return false
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values: Null < Bool < numeric < String, with numeric
// kinds compared by exact value (see compareNumeric). Returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		return sign(vr - or)
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return boolCompare(v.b, o.b)
	case v.isNumeric():
		return compareNumeric(v, o)
	default:
		return strings.Compare(v.s, o.s)
	}
}

// compareNumeric orders two numeric values without rounding: ints as int64,
// floats as float64, and an int against a float exactly, so values that
// compare 0 are Equal and hash equally — 1<<53 and 1<<53+1 are two keys, not
// one. A NaN compares equal to every number.
func compareNumeric(v, o Value) int {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return cmp.Compare(v.i, o.i)
	case v.kind == KindInt:
		return compareIntFloat(v.i, o.f)
	case o.kind == KindInt:
		return -compareIntFloat(o.i, v.f)
	case v.f < o.f:
		return -1
	case v.f > o.f:
		return 1
	}
	return 0
}

// compareIntFloat orders i against f exactly: by f's integral part, which
// is an int64 once f is inside the int64 range, then by its fraction.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func boolCompare(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// hashOffset and hashPrime are the FNV-1a parameters every engine hash is
// built from (value hashes, record hashes, and the hash caches ColBatch
// carries for the combining senders).
const (
	hashOffset uint64 = 14695981039346656037
	hashPrime  uint64 = 1099511628211
)

// hashMix8 folds the eight little-endian bytes of x into h one byte at a
// time — the unrolled equivalent of the byte loop this function used before
// vectorization, so hash values (and therefore shuffle routing and canonical
// output order) are bit-for-bit unchanged while the per-byte closure call
// and the encode buffer disappear from the hottest loop in the engine.
// hashTagSeed mixes the kind tag into a fresh hash state — the first byte
// every value hash folds in. A function (not a constant expression) so the
// deliberately overflowing FNV multiply happens in wrapping uint64
// arithmetic.
func hashTagSeed(k Kind) uint64 {
	h := hashOffset ^ uint64(k)
	return h * hashPrime
}

func hashMix8(h, x uint64) uint64 {
	h = (h ^ (x & 0xff)) * hashPrime
	h = (h ^ (x >> 8 & 0xff)) * hashPrime
	h = (h ^ (x >> 16 & 0xff)) * hashPrime
	h = (h ^ (x >> 24 & 0xff)) * hashPrime
	h = (h ^ (x >> 32 & 0xff)) * hashPrime
	h = (h ^ (x >> 40 & 0xff)) * hashPrime
	h = (h ^ (x >> 48 & 0xff)) * hashPrime
	h = (h ^ (x >> 56 & 0xff)) * hashPrime
	return h
}

// Hash folds the value into a 64-bit FNV-1a style hash, used by hash
// partitioning and hash joins. The byte sequence hashed is exactly the kind
// tag followed by the little-endian payload, matching the pre-columnar
// implementation byte for byte (see TestValueHashMatchesReference).
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindInt:
		return hashMix8(hashTagSeed(KindInt), uint64(v.i))
	case KindFloat:
		// Hash floats by numeric identity with ints when integral, so that
		// Equal values hash equally.
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return hashMix8(hashTagSeed(KindInt), uint64(int64(v.f)))
		}
		return hashMix8(hashTagSeed(KindFloat), math.Float64bits(v.f))
	case KindString:
		h := hashTagSeed(KindString)
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * hashPrime
		}
		return h
	case KindBool:
		h := hashTagSeed(KindBool)
		if v.b {
			return (h ^ 1) * hashPrime
		}
		return h * hashPrime
	default:
		return hashTagSeed(KindNull)
	}
}

// EncodedSize returns the number of bytes the value would occupy in the
// engine's wire encoding. Used for network/disk cost accounting.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 9
	case KindBool:
		return 2
	case KindString:
		return 1 + 4 + len(v.s)
	default:
		return 1
	}
}

// Record is an ordered tuple of values r = <v1, ..., vm>.
type Record []Value

// NewRecord returns an all-Null record of width n.
func NewRecord(n int) Record { return make(Record, n) }

// Clone returns a copy of the record that shares no storage.
func (r Record) Clone() Record {
	c := make(Record, len(r))
	copy(c, r)
	return c
}

// Field returns field n, or Null if n is out of range.
func (r Record) Field(n int) Value {
	if n < 0 || n >= len(r) {
		return Null
	}
	return r[n]
}

// WithField returns a copy of r with field n set to v, growing the record
// if necessary.
func (r Record) WithField(n int, v Value) Record {
	width := len(r)
	if n >= width {
		width = n + 1
	}
	c := make(Record, width)
	copy(c, r)
	c[n] = v
	return c
}

// SetField sets field n in place; the record must be wide enough.
func (r Record) SetField(n int, v Value) {
	r[n] = v
}

// Equal implements record equality (Section 2.2): same arity and pairwise
// equal values.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// EqualOn reports whether r and o agree on the given fields — the
// allocation-free equivalent of comparing the two Project(fields) records.
func (r Record) EqualOn(o Record, fields []int) bool {
	for _, f := range fields {
		if !r.Field(f).Equal(o.Field(f)) {
			return false
		}
	}
	return true
}

// CompareOn orders r and o by the given fields — the allocation-free
// equivalent of comparing the two Project(fields) records.
func (r Record) CompareOn(o Record, fields []int) int {
	for _, f := range fields {
		if c := r.Field(f).Compare(o.Field(f)); c != 0 {
			return c
		}
	}
	return 0
}

// Compare orders records lexicographically; shorter records order first on
// equal prefixes.
func (r Record) Compare(o Record) int {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return sign(len(r) - len(o))
}

// Project returns the sub-record of r at the given field indices
// (the projection π_F of the paper).
func (r Record) Project(fields []int) Record {
	p := make(Record, len(fields))
	for i, f := range fields {
		p[i] = r.Field(f)
	}
	return p
}

// Hash combines the hashes of the fields at the given indices. With a nil
// slice it hashes all fields.
func (r Record) Hash(fields []int) uint64 {
	h := hashOffset
	if fields == nil {
		for _, v := range r {
			h = (h*hashPrime ^ v.Hash())
		}
		return h
	}
	for _, f := range fields {
		h = (h*hashPrime ^ r.Field(f).Hash())
	}
	return h
}

// EncodedSize is the wire size of the record: a 4-byte arity header plus the
// fields.
func (r Record) EncodedSize() int {
	n := 4
	for _, v := range r {
		n += v.EncodedSize()
	}
	return n
}

// Merge overlays the non-null fields of o onto a copy of r, widening as
// needed. It implements record concatenation over the global-record layout:
// two inputs whose attributes live at disjoint global indices merge into the
// combined record.
func (r Record) Merge(o Record) Record {
	width := len(r)
	if len(o) > width {
		width = len(o)
	}
	c := make(Record, width)
	copy(c, r)
	for i, v := range o {
		if !v.IsNull() {
			c[i] = v
		}
	}
	return c
}

// String renders the record for debugging.
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range r {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}

// DataSet is a bag of records.
type DataSet []Record

// Clone deep-copies the data set.
func (d DataSet) Clone() DataSet {
	c := make(DataSet, len(d))
	for i, r := range d {
		c[i] = r.Clone()
	}
	return c
}

// Equal implements bag equality (Section 2.2, D1 ≡ D2): there exist
// orderings of the two data sets under which records are pairwise equal.
// It sorts canonical renderings of both sides, so it is insensitive to
// record order.
func (d DataSet) Equal(o DataSet) bool {
	if len(d) != len(o) {
		return false
	}
	a := d.canonical()
	b := o.canonical()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (d DataSet) canonical() []string {
	keys := make([]string, len(d))
	for i, r := range d {
		keys[i] = canonicalRecord(r)
	}
	sort.Strings(keys)
	return keys
}

// canonicalRecord renders a record such that Equal values render equally
// (e.g. Int(2) and Float(2.0)) and unequal ones differently: integral
// numerics render as their exact int64.
func canonicalRecord(r Record) string {
	var b strings.Builder
	for _, v := range r {
		f := v.AsFloat()
		switch {
		case v.IsNull():
			b.WriteString("~;")
		case v.kind == KindInt || v.kind == KindFloat && f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63:
			fmt.Fprintf(&b, "n%d;", v.AsInt())
		case v.isNumeric():
			fmt.Fprintf(&b, "n%g;", f)
		case v.kind == KindString:
			fmt.Fprintf(&b, "s%q;", v.s)
		default:
			fmt.Fprintf(&b, "b%t;", v.b)
		}
	}
	return b.String()
}

// TotalSize returns the wire size of all records.
func (d DataSet) TotalSize() int {
	n := 0
	for _, r := range d {
		n += r.EncodedSize()
	}
	return n
}
