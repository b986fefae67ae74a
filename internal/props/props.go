// Package props defines the operator properties at the heart of the paper:
// read sets, write sets, emit cardinality bounds, and the derived ROC and
// KGP conditions (Definitions 2–5). These properties are produced either by
// static code analysis (package sca) or by manual annotations, and consumed
// by the optimizer.
//
// Properties come in two stages. An Effect is *symbolic*: it describes a UDF
// in isolation (which field indices it reads, which parameters it copies
// into its output, its emit bounds). The optimizer later *resolves* an
// Effect against the attribute sets flowing on the operator's input edges to
// obtain concrete global-attribute read and write sets (Definition 1's
// global record makes this resolution a set union).
package props

import (
	"fmt"
	"iter"
	"math/bits"
	"strconv"
	"strings"
)

// MaxField is the largest field index a FieldSet accepts. Attribute indices
// are small dense ints handed out by Flow.DeclareAttr; the bound keeps a
// stray index in UDF code from sizing a bitset (static code analysis rejects
// UDFs that address fields beyond it).
const MaxField = 1<<16 - 1

// FieldSet is a set of global field indices (attributes of the global
// record, Definition 1), stored as a dense bitset: bit f%64 of word f/64.
// The zero value (nil) is the empty set, and trailing zero words carry no
// meaning.
//
// A FieldSet is a value. Only Add and UnionWith modify their receiver (they
// take a pointer because they may grow it); every other operation leaves its
// operands untouched and returns fresh storage. Assigning a FieldSet copies
// the slice header, not the words, so a holder that keeps mutating a set it
// has handed out must hand out a Clone.
type FieldSet []uint64

// NewFieldSet builds a set from the given indices.
func NewFieldSet(fields ...int) FieldSet {
	var s FieldSet
	for _, f := range fields {
		s.Add(f)
	}
	return s
}

// Add inserts f. It panics when f is outside [0, MaxField]: indices come
// from Flow.DeclareAttr or from UDF code that SCA has range-checked.
func (s *FieldSet) Add(f int) {
	if f < 0 || f > MaxField {
		panic("props: field index " + strconv.Itoa(f) + " out of range")
	}
	w := f >> 6
	s.grow(w + 1)
	(*s)[w] |= 1 << (f & 63)
}

// grow extends s with zero words to at least n words.
func (s *FieldSet) grow(n int) {
	if n > len(*s) {
		*s = append(*s, make(FieldSet, n-len(*s))...)
	}
}

// Has reports membership.
func (s FieldSet) Has(f int) bool {
	w := f >> 6
	return f >= 0 && w < len(s) && s[w]&(1<<(f&63)) != 0
}

// Len returns the cardinality.
func (s FieldSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no member.
func (s FieldSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s FieldSet) Clone() FieldSet {
	return append(FieldSet(nil), s...)
}

// UnionWith adds all members of o to s.
func (s *FieldSet) UnionWith(o FieldSet) {
	s.grow(len(o))
	for i, w := range o {
		(*s)[i] |= w
	}
}

// unionMasked adds a∩m (keep) or a\m (!keep) to s without a temporary.
func (s *FieldSet) unionMasked(a, m FieldSet, keep bool) {
	s.grow(len(a))
	for i, w := range a {
		var mw uint64
		if i < len(m) {
			mw = m[i]
		}
		if !keep {
			mw = ^mw
		}
		(*s)[i] |= w & mw
	}
}

// Union returns a new set with the members of both.
func Union(a, b FieldSet) FieldSet {
	out := a.Clone()
	out.UnionWith(b)
	return out
}

// Intersect returns the common members.
func Intersect(a, b FieldSet) FieldSet {
	var out FieldSet
	out.unionMasked(a, b, true)
	return out
}

// Minus returns a \ b.
func Minus(a, b FieldSet) FieldSet {
	var out FieldSet
	out.unionMasked(a, b, false)
	return out
}

// Disjoint reports whether the sets share no member.
func Disjoint(a, b FieldSet) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for i, w := range a {
		if w&b[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is in o.
func (s FieldSet) SubsetOf(o FieldSet) bool {
	for i, w := range s {
		if i < len(o) {
			w &^= o[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s FieldSet) Equal(o FieldSet) bool {
	return s.SubsetOf(o) && o.SubsetOf(s)
}

// All iterates the members in increasing order.
func (s FieldSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for i, w := range s {
			for ; w != 0; w &= w - 1 {
				if !yield(i<<6 | bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// Sorted returns the members in increasing order.
func (s FieldSet) Sorted() []int {
	out := make([]int, 0, s.Len())
	for f := range s.All() {
		out = append(out, f)
	}
	return out
}

// String renders the set as {i,j,...}.
func (s FieldSet) String() string {
	b := []byte{'{'}
	for f := range s.All() {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(f), 10)
	}
	return string(append(b, '}'))
}

// Unbounded marks an emit cardinality with no static upper bound.
const Unbounded = -1

// Effect is the symbolic behaviour of a UDF, derived by static code analysis
// (Section 5) or supplied as a manual annotation. Field indices are global
// (Definition 1): the UDF's code addresses attributes by their position in
// the global record, so no per-input renaming is needed.
type Effect struct {
	// Reads are the fields whose values may influence the UDF's output
	// (Definition 3). Pure field copies are excluded: a value that flows
	// only into the same field of the output cannot change any *other*
	// attribute of the output.
	Reads FieldSet

	// CondReads ⊆ Reads are the fields that may influence control flow and
	// hence the number or identity of emitted records. Used by the KGP test
	// (Definition 5, case 2): a 0-or-1 emitter whose decision depends only
	// on fields within the grouping key filters whole key groups.
	CondReads FieldSet

	// DynamicRead is set when the UDF performs a field access whose index is
	// not statically computable; the analysis must then assume it reads
	// every attribute present on its input.
	DynamicRead bool

	// CopiesParam[p] reports that every record the UDF can emit implicitly
	// copies all attributes of input parameter p (the paper's copy
	// constructor / implicit copy). Parameters that are not copied are
	// implicitly projected: every attribute of that input lands in the
	// write set unless explicitly copied (see Copies).
	CopiesParam []bool

	// Sets are fields explicitly written with a non-copy value (the paper's
	// explicit modification and explicit add).
	Sets FieldSet

	// Projects are fields explicitly set to null (explicit projection).
	Projects FieldSet

	// Copies are fields explicitly copied from the same field index of an
	// input (explicit copy); they do not enter the write set.
	Copies FieldSet

	// EmitMin and EmitMax bound the number of records emitted per
	// invocation (per input record for record-at-a-time UDFs, per key group
	// for key-at-a-time UDFs). EmitMax == Unbounded means no static bound.
	EmitMin, EmitMax int

	// AllOrNone marks a key-at-a-time UDF that either re-emits every record
	// of its input group unchanged or filters the whole group (the KAT
	// extension of Definition 5). Static analysis never derives this — it
	// would have to prove a loop emits each record exactly once — so it is
	// available only through manual annotation; this asymmetry is one
	// source of the manual-vs-SCA gap in the paper's Table 1.
	AllOrNone bool
}

// NewEffect returns an empty effect for a UDF with n input parameters.
func NewEffect(n int) *Effect {
	return &Effect{CopiesParam: make([]bool, n)}
}

// Clone deep-copies the effect.
func (e *Effect) Clone() *Effect {
	c := *e
	c.Reads = e.Reads.Clone()
	c.CondReads = e.CondReads.Clone()
	c.CopiesParam = append([]bool(nil), e.CopiesParam...)
	c.Sets = e.Sets.Clone()
	c.Projects = e.Projects.Clone()
	c.Copies = e.Copies.Clone()
	return &c
}

// ResolveRead computes the concrete read set R_f given the attribute sets
// flowing on the operator's input edges. Like ResolveWrite and
// ResolveOutput, it builds the set in dst's storage, growing it as needed
// (a nil dst allocates).
func (e *Effect) ResolveRead(dst FieldSet, inputs []FieldSet) FieldSet {
	r := append(dst[:0], e.Reads...)
	if e.DynamicRead {
		for _, in := range inputs {
			r.UnionWith(in)
		}
	}
	return r
}

// ResolveWrite computes the concrete write set W_f (Definition 2) given the
// attribute sets on the input edges: explicitly modified and added fields,
// plus — for every input that is not implicitly copied — all of that
// input's attributes except the explicitly copied ones.
func (e *Effect) ResolveWrite(dst FieldSet, inputs []FieldSet) FieldSet {
	w := append(dst[:0], e.Sets...)
	w.UnionWith(e.Projects)
	for p, in := range inputs {
		// An implicitly copied input can still lose explicitly projected
		// fields; those are already in w via Projects.
		if copied := p < len(e.CopiesParam) && e.CopiesParam[p]; !copied {
			w.unionMasked(in, e.Copies, false)
		}
	}
	return w
}

// ResolveOutput computes the attribute set on the operator's output edge:
// copied inputs' attributes, explicitly copied fields, and explicitly set
// fields, minus explicit projections.
func (e *Effect) ResolveOutput(dst FieldSet, inputs []FieldSet) FieldSet {
	out := dst[:0]
	for p, in := range inputs {
		if p < len(e.CopiesParam) && e.CopiesParam[p] {
			out.UnionWith(in)
		} else {
			// Only explicitly copied fields survive from a projected input.
			out.unionMasked(in, e.Copies, true)
		}
	}
	out.UnionWith(e.Sets)
	for i, w := range e.Projects[:min(len(e.Projects), len(out))] {
		out[i] &^= w
	}
	return out
}

// EmitsExactlyOne reports whether every invocation emits exactly one record.
func (e *Effect) EmitsExactlyOne() bool { return e.EmitMin == 1 && e.EmitMax == 1 }

// EmitsAtMostOne reports whether every invocation emits zero or one record.
func (e *Effect) EmitsAtMostOne() bool {
	return e.EmitMax != Unbounded && e.EmitMax <= 1
}

// KGP implements Definition 5: the UDF preserves key groups for grouping key
// K if it emits exactly one record per input, or if it is a 0-or-1 emitter
// whose emit decision depends only on fields inside K.
func (e *Effect) KGP(key FieldSet) bool {
	if e.EmitsExactlyOne() {
		return true
	}
	if !e.EmitsAtMostOne() {
		return false
	}
	if e.DynamicRead {
		return false
	}
	return e.CondReads.SubsetOf(key)
}

// KGPGroup is the key-at-a-time variant of KGP: a KAT UDF preserves key
// groups for K iff it re-emits whole groups or filters them entirely
// (AllOrNone) and that decision depends only on fields inside K.
func (e *Effect) KGPGroup(key FieldSet) bool {
	if !e.AllOrNone || e.DynamicRead {
		return false
	}
	return e.CondReads.SubsetOf(key)
}

// CombinerSafe decides whether a Reduce grouping on key may apply a
// combiner with effect e on the shuffle senders (pre-shuffle partial
// aggregation). Two properties, both checked against the combiner's
// derived read/write-set behaviour rather than trusted from the
// declaration, make the rewrite safe:
//
//   - the combiner emits exactly one record per partial group: emitting
//     zero would drop data before the final aggregate sees it, emitting
//     more would not shrink the shuffle and could duplicate it;
//   - the combiner's resolved write set is disjoint from the grouping key
//     (given the attributes present on the input edge), so a partial
//     record hashes to the same target partition — and lands in the same
//     final group — as the raw records it stands for.
//
// Whether the (combiner, reducer) pair is a genuine decomposition of the
// aggregate is the declarer's contract, exactly like the paper's manual
// annotations; CombinerSafe rules out the declarations that would break
// routing or cardinality regardless of that contract.
func CombinerSafe(e *Effect, key FieldSet, input FieldSet) bool {
	if e == nil || !e.EmitsExactlyOne() {
		return false
	}
	return Disjoint(e.ResolveWrite(nil, []FieldSet{input}), key)
}

// String summarizes the effect.
func (e *Effect) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "R=%s condR=%s", e.Reads, e.CondReads)
	if e.DynamicRead {
		b.WriteString(" dyn")
	}
	fmt.Fprintf(&b, " copies=%v sets=%s proj=%s copy=%s emit=[%d,", e.CopiesParam, e.Sets, e.Projects, e.Copies, e.EmitMin)
	if e.EmitMax == Unbounded {
		b.WriteString("inf]")
	} else {
		fmt.Fprintf(&b, "%d]", e.EmitMax)
	}
	return b.String()
}

// ROC implements Definition 4 over *resolved* read and write sets: two
// operators are read-only-conflict free iff neither writes what the other
// reads or writes.
func ROC(r1, w1, r2, w2 FieldSet) bool {
	return Disjoint(r1, w2) && Disjoint(w1, r2) && Disjoint(w1, w2)
}
