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
// records in, and the wire codec (AppendEncoded, the byte layout
// EncodedSize prices; AppendFrame and ReadFrame, which frame records for a
// spill run and a TCP data frame alike; and DecodeRecords / DecodeBatch,
// which decode a whole frame of records into one Value slab and one string
// arena) that both the shuffle's byte accounting and the spill package's
// on-disk run format are denominated in.
package record

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
	"unsafe"
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
//
// A Value is 24 bytes: n holds the payload — an int's bits, a float's bits,
// a bool as 0/1, or a string's length — and p, set for strings only, points
// at the string's bytes. Compare Values with Equal or Compare, never with ==
// or reflect.DeepEqual: == compares string pointers, not strings, and
// DeepEqual follows p to a string's first byte only.
type Value struct {
	p    *byte
	n    uint64
	kind Kind
}

// Null is the absent value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String returns a string value. It shares v's bytes: a string is immutable,
// and p, an interior pointer into them, keeps them alive.
func String(v string) Value {
	return Value{kind: KindString, p: unsafe.StringData(v), n: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// str is the string payload; "" for every other kind.
func (v Value) str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String(v.p, int(v.n))
}

// float is the payload read as a float's bits.
func (v Value) float() float64 { return math.Float64frombits(v.n) }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. Floats are truncated; bools map to 0/1.
// Null and strings return 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return int64(v.n)
	case KindFloat:
		return int64(v.float())
	default:
		return 0
	}
}

// AsFloat returns the numeric payload as float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt:
		return float64(int64(v.n))
	case KindBool:
		return float64(v.n)
	default:
		return 0
	}
}

// AsString returns the string payload, or a rendering for other kinds.
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.str()
	}
	return v.String()
}

// AsBool returns the truthiness of the value: false for Null, zero numbers,
// and the empty string.
func (v Value) AsBool() bool {
	if v.kind == KindFloat {
		return v.float() != 0
	}
	return v.n != 0 // bool 0/1, int bits, string length; Null is 0
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥"
	case KindInt:
		return fmt.Sprintf("%d", int64(v.n))
	case KindFloat:
		return fmt.Sprintf("%g", v.float())
	case KindString:
		return fmt.Sprintf("%q", v.str())
	case KindBool:
		return fmt.Sprintf("%t", v.n != 0)
	default:
		return "?"
	}
}

// Equal implements value equality (paper Section 2.2: v1i = v2i). It holds
// exactly when Compare reports 0: numeric values compare across int/float
// kinds by exact numeric value, −0 equals 0, and a NaN equals every NaN and
// nothing else. Two ints compare inline; every other pair goes to equal.
func (v Value) Equal(o Value) bool {
	if v.kind == KindInt && o.kind == KindInt {
		return v.n == o.n
	}
	return v.equal(o)
}

func (v Value) equal(o Value) bool {
	if v.kind != o.kind {
		return v.isNumeric() && o.isNumeric() && compareNumeric(v, o) == 0
	}
	switch v.kind {
	case KindString:
		return v.str() == o.str()
	case KindFloat:
		return cmp.Compare(v.float(), o.float()) == 0
	default:
		return v.n == o.n // Null (both 0), bool 0/1
	}
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values: Null < Bool < numeric < String, with numeric
// kinds compared by exact value (see compareNumeric). Returns -1, 0, or +1.
// Two ints or two strings, the usual keys, compare before any rank.
func (v Value) Compare(o Value) int {
	if v.kind == o.kind {
		switch v.kind {
		case KindInt:
			return cmp.Compare(int64(v.n), int64(o.n))
		case KindString:
			return strings.Compare(v.str(), o.str())
		}
	}
	vr, or := v.rank(), o.rank()
	if vr != or {
		return sign(vr - or)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmp.Compare(v.n, o.n)
	default:
		return compareNumeric(v, o)
	}
}

// compareNumeric orders two numeric values, not both ints, without
// rounding: floats as float64, and an int against a float exactly, so
// values that compare 0 are Equal and hash equally — 1<<53 and 1<<53+1 are
// two keys, not one. NaN orders below every number and equal to every NaN,
// as cmp.Compare orders floats, so the order is total.
func compareNumeric(v, o Value) int {
	switch {
	case v.kind == KindInt:
		return compareIntFloat(int64(v.n), o.float())
	case o.kind == KindInt:
		return -compareIntFloat(int64(o.n), v.float())
	default:
		return cmp.Compare(v.float(), o.float())
	}
}

// compareIntFloat orders i against f exactly: by f's integral part, which
// is an int64 once f is inside the int64 range, then by its fraction.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 1
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

// hashOffset and hashPrime are the FNV-1a parameters every engine hash is
// built from (value hashes and record hashes).
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

// nanBits are the bits of math.NaN(), the one NaN every NaN hashes as.
const nanBits = 0x7ff8000000000001

// Hash folds the value into a 64-bit FNV-1a style hash, used by hash
// partitioning and hash joins. The byte sequence hashed is exactly the kind
// tag followed by the little-endian payload (for a NaN, math.NaN()'s),
// matching the seed's byte-at-a-time implementation (see
// TestValueHashMatchesReference).
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindInt:
		return hashMix8(hashTagSeed(KindInt), v.n)
	case KindFloat:
		// Hash floats by numeric identity with ints when integral, and every
		// NaN as one, so that Equal values hash equally.
		f := v.float()
		switch {
		case f != f:
			return hashMix8(hashTagSeed(KindFloat), nanBits)
		case f == math.Trunc(f) && !math.IsInf(f, 0):
			return hashMix8(hashTagSeed(KindInt), uint64(int64(f)))
		}
		return hashMix8(hashTagSeed(KindFloat), v.n)
	case KindString:
		h := hashTagSeed(KindString)
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * hashPrime
		}
		return h
	case KindBool:
		return (hashTagSeed(KindBool) ^ v.n) * hashPrime
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
		return 1 + 4 + int(v.n)
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
			fmt.Fprintf(&b, "s%q;", v.str())
		default:
			fmt.Fprintf(&b, "b%t;", v.n != 0)
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
