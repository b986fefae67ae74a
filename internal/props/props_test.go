package props

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFieldSetBasics(t *testing.T) {
	s := NewFieldSet(1, 3, 5)
	if !s.Has(3) || s.Has(2) || s.Len() != 3 {
		t.Errorf("basic membership wrong: %v", s)
	}
	s.Add(2)
	if !s.Has(2) {
		t.Error("Add failed")
	}
	got := s.Sorted()
	want := []int{1, 2, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v", got)
		}
	}
	if s.String() != "{1,2,3,5}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestFieldSetAlgebra(t *testing.T) {
	a := NewFieldSet(1, 2, 3)
	b := NewFieldSet(3, 4)
	if got := Union(a, b); !got.Equal(NewFieldSet(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	if got := Intersect(a, b); !got.Equal(NewFieldSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := Minus(a, b); !got.Equal(NewFieldSet(1, 2)) {
		t.Errorf("Minus = %v", got)
	}
	if Disjoint(a, b) {
		t.Error("a and b share 3")
	}
	if !Disjoint(NewFieldSet(1), NewFieldSet(2)) {
		t.Error("disjoint sets reported overlapping")
	}
	if !NewFieldSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	c := a.Clone()
	c.Add(99)
	if a.Has(99) {
		t.Error("Clone must not share storage")
	}
}

func TestROC(t *testing.T) {
	// Paper Section 3: f1 has R={1} W={1}; f2 has R={0} W={}; f3 has R={0,1} W={0}.
	r1, w1 := NewFieldSet(1), NewFieldSet(1)
	r2, w2 := NewFieldSet(0), NewFieldSet()
	r3, w3 := NewFieldSet(0, 1), NewFieldSet(0)
	if !ROC(r1, w1, r2, w2) {
		t.Error("f1/f2 must satisfy ROC (reorderable)")
	}
	if ROC(r2, w2, r3, w3) {
		t.Error("f2/f3 conflict on field 0 (R_f2 ∩ W_f3)")
	}
	if ROC(r1, w1, r3, w3) {
		t.Error("f1/f3 conflict on field 1 (W_f1 ∩ R_f3)")
	}
	// Write-write conflict.
	if ROC(NewFieldSet(), NewFieldSet(5), NewFieldSet(), NewFieldSet(5)) {
		t.Error("write-write conflict missed")
	}
}

func TestEffectResolution(t *testing.T) {
	// A map UDF that implicitly copies its input, modifies field 2, adds
	// field 7, and projects field 3.
	e := NewEffect(1)
	e.CopiesParam[0] = true
	e.Sets = NewFieldSet(2, 7)
	e.Projects = NewFieldSet(3)
	in := []FieldSet{NewFieldSet(0, 1, 2, 3)}

	w := e.ResolveWrite(nil, in)
	if !w.Equal(NewFieldSet(2, 3, 7)) {
		t.Errorf("write set = %v, want {2,3,7}", w)
	}
	out := e.ResolveOutput(nil, in)
	if !out.Equal(NewFieldSet(0, 1, 2, 7)) {
		t.Errorf("output attrs = %v, want {0,1,2,7}", out)
	}
}

func TestEffectImplicitProjection(t *testing.T) {
	// Default constructor: all input attributes written except explicit
	// copies.
	e := NewEffect(1)
	e.Copies = NewFieldSet(0)
	e.Sets = NewFieldSet(5)
	in := []FieldSet{NewFieldSet(0, 1, 2)}
	w := e.ResolveWrite(nil, in)
	if !w.Equal(NewFieldSet(1, 2, 5)) {
		t.Errorf("write set = %v, want {1,2,5}", w)
	}
	out := e.ResolveOutput(nil, in)
	if !out.Equal(NewFieldSet(0, 5)) {
		t.Errorf("output = %v, want {0,5}", out)
	}
}

func TestEffectBinaryResolution(t *testing.T) {
	// A Match-style UDF concatenating both inputs.
	e := NewEffect(2)
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	in := []FieldSet{NewFieldSet(0, 1), NewFieldSet(2, 3)}
	if w := e.ResolveWrite(nil, in); w.Len() != 0 {
		t.Errorf("pure concat writes nothing, got %v", w)
	}
	if out := e.ResolveOutput(nil, in); !out.Equal(NewFieldSet(0, 1, 2, 3)) {
		t.Errorf("output = %v", out)
	}
	// Copying only the left side implicitly projects the right.
	e2 := NewEffect(2)
	e2.CopiesParam[0] = true
	if w := e2.ResolveWrite(nil, in); !w.Equal(NewFieldSet(2, 3)) {
		t.Errorf("write = %v, want right side", w)
	}
}

func TestDynamicRead(t *testing.T) {
	e := NewEffect(1)
	e.Reads = NewFieldSet(0)
	e.DynamicRead = true
	in := []FieldSet{NewFieldSet(0, 1, 2)}
	if r := e.ResolveRead(nil, in); !r.Equal(NewFieldSet(0, 1, 2)) {
		t.Errorf("dynamic read must cover the whole input, got %v", r)
	}
}

func TestKGP(t *testing.T) {
	// Exactly-one emitter: KGP for any key.
	one := NewEffect(1)
	one.EmitMin, one.EmitMax = 1, 1
	if !one.KGP(NewFieldSet()) {
		t.Error("exactly-one emitter must satisfy KGP for any key")
	}
	// 0-or-1 filter on field 0: KGP iff 0 ∈ key.
	filter := NewEffect(1)
	filter.EmitMin, filter.EmitMax = 0, 1
	filter.CondReads = NewFieldSet(0)
	filter.Reads = NewFieldSet(0)
	if !filter.KGP(NewFieldSet(0, 1)) {
		t.Error("filter on key subset must satisfy KGP")
	}
	if filter.KGP(NewFieldSet(1)) {
		t.Error("filter on non-key field must not satisfy KGP")
	}
	// Multi-emitters never satisfy KGP.
	multi := NewEffect(1)
	multi.EmitMin, multi.EmitMax = 0, 2
	if multi.KGP(NewFieldSet(0)) {
		t.Error("multi-emitter must not satisfy KGP")
	}
	unbounded := NewEffect(1)
	unbounded.EmitMin, unbounded.EmitMax = 0, Unbounded
	if unbounded.KGP(NewFieldSet(0)) {
		t.Error("unbounded emitter must not satisfy KGP")
	}
	// Dynamic reads poison the condition-read subset test.
	dyn := NewEffect(1)
	dyn.EmitMin, dyn.EmitMax = 0, 1
	dyn.DynamicRead = true
	if dyn.KGP(NewFieldSet(0)) {
		t.Error("dynamic-read filter must not satisfy KGP")
	}
}

func TestEffectClone(t *testing.T) {
	e := NewEffect(2)
	e.Reads.Add(1)
	c := e.Clone()
	c.Reads.Add(2)
	c.CopiesParam[0] = true
	if e.Reads.Has(2) || e.CopiesParam[0] {
		t.Error("Clone shares storage with original")
	}
}

// Property: ROC is symmetric.
func TestQuickROCSymmetric(t *testing.T) {
	mk := func(bits uint8) FieldSet {
		s := FieldSet{}
		for i := 0; i < 8; i++ {
			if bits&(1<<i) != 0 {
				s.Add(i)
			}
		}
		return s
	}
	f := func(a, b, c, d uint8) bool {
		r1, w1, r2, w2 := mk(a), mk(b), mk(c), mk(d)
		return ROC(r1, w1, r2, w2) == ROC(r2, w2, r1, w1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Union is commutative and Minus(a,b) ⊆ a.
func TestQuickSetAlgebra(t *testing.T) {
	mk := func(xs []uint8) FieldSet {
		s := FieldSet{}
		for _, x := range xs {
			s.Add(int(x % 32))
		}
		return s
	}
	f := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		if !Union(a, b).Equal(Union(b, a)) {
			return false
		}
		if !Minus(a, b).SubsetOf(a) {
			return false
		}
		return Disjoint(Minus(a, b), b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCombinerSafe pins the two gates of the pre-shuffle aggregation
// safety check: exactly-one emission and a write set disjoint from the
// grouping key.
func TestCombinerSafe(t *testing.T) {
	key := NewFieldSet(0)
	input := NewFieldSet(0, 1, 2)

	ok := NewEffect(1)
	ok.CopiesParam[0] = true
	ok.Sets = NewFieldSet(1)
	ok.EmitMin, ok.EmitMax = 1, 1
	if !CombinerSafe(ok, key, input) {
		t.Error("exactly-one, key-preserving combiner rejected")
	}

	keyWriter := ok.Clone()
	keyWriter.Sets = NewFieldSet(0, 1)
	if CombinerSafe(keyWriter, key, input) {
		t.Error("key-writing combiner accepted")
	}

	// An implicitly projecting combiner (no CopiesParam) writes every
	// input attribute, including the key.
	projecting := ok.Clone()
	projecting.CopiesParam[0] = false
	if CombinerSafe(projecting, key, input) {
		t.Error("implicitly projecting combiner accepted: its write set covers the key")
	}

	filter := ok.Clone()
	filter.EmitMin = 0
	if CombinerSafe(filter, key, input) {
		t.Error("0-or-1 emitter accepted: dropping a partial group loses data")
	}

	multi := ok.Clone()
	multi.EmitMax = Unbounded
	if CombinerSafe(multi, key, input) {
		t.Error("unbounded emitter accepted")
	}

	if CombinerSafe(nil, key, input) {
		t.Error("nil effect accepted")
	}
}

// modelSet is the map-backed set FieldSet used to be; the bitset must be
// indistinguishable from it through the public API.
type modelSet map[int]struct{}

func (m modelSet) sorted() []int {
	out := make([]int, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// TestFieldSetMatchesMapModel drives bitset sets and map models through the
// same random operation sequences — indices on both sides of the word
// boundary, nil and emptied receivers included — and compares every
// observation after every step.
func TestFieldSetMatchesMapModel(t *testing.T) {
	const slots = 4
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		field := func() int {
			switch rng.Intn(4) {
			case 0:
				return 60 + rng.Intn(10) // straddles the first word boundary
			case 1:
				return rng.Intn(300)
			default:
				return rng.Intn(12)
			}
		}
		var sets [slots]FieldSet // zero value: nil receivers until first Add
		var models [slots]modelSet
		for i := range models {
			models[i] = modelSet{}
		}
		for step := 0; step < 120; step++ {
			a, b := rng.Intn(slots), rng.Intn(slots)
			switch op := rng.Intn(9); op {
			case 0, 1:
				f := field()
				sets[a].Add(f)
				models[a][f] = struct{}{}
			case 2:
				sets[a].UnionWith(sets[b])
				for f := range models[b] {
					models[a][f] = struct{}{}
				}
			case 3:
				sets[a] = Union(sets[a], sets[b])
				for f := range models[b] {
					models[a][f] = struct{}{}
				}
			case 4:
				sets[a] = Intersect(sets[a], sets[b])
				for f := range models[a] {
					if _, ok := models[b][f]; !ok {
						delete(models[a], f)
					}
				}
			case 5:
				// Minus can empty a set without shrinking it: trailing zero
				// words must not show.
				sets[a] = Minus(sets[a], sets[b])
				for f := range models[b] {
					delete(models[a], f)
				}
			case 6:
				// Clone independence: mutating the clone leaves the
				// original alone (the map type shared storage on
				// assignment; the bitset must not be relied on to).
				c := sets[b].Clone()
				c.Add(field())
				c.UnionWith(sets[a])
				if got, want := sets[b].Sorted(), models[b].sorted(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: mutating a clone changed the original: %v, want %v", seed, step, got, want)
				}
			case 7:
				members := models[b].sorted()
				sets[a] = NewFieldSet(members...)
				models[a] = modelSet{}
				for _, f := range members {
					models[a][f] = struct{}{}
				}
			case 8:
				sets[a] = nil
				models[a] = modelSet{}
			}
			for i := range sets {
				s, m := sets[i], models[i]
				want := m.sorted()
				if got := s.Sorted(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: set %d = %v, model %v", seed, step, i, got, want)
				}
				var iterated []int
				for f := range s.All() {
					iterated = append(iterated, f)
				}
				if !slices.Equal(iterated, want) {
					t.Fatalf("seed %d step %d: All() = %v, want ascending %v", seed, step, iterated, want)
				}
				if s.Len() != len(m) || s.Empty() != (len(m) == 0) {
					t.Fatalf("seed %d step %d: Len/Empty = %d/%v, model has %d", seed, step, s.Len(), s.Empty(), len(m))
				}
				if got := s.String(); got != "{"+joinInts(want)+"}" {
					t.Fatalf("seed %d step %d: String = %q for %v", seed, step, got, want)
				}
				f := field()
				if _, in := m[f]; s.Has(f) != in {
					t.Fatalf("seed %d step %d: Has(%d) = %v, model %v", seed, step, f, s.Has(f), in)
				}
				if s.Has(-1) {
					t.Fatal("Has(-1) on a set")
				}
				for j := range sets {
					o, om := sets[j], models[j]
					subset, disjoint := true, true
					for f := range m {
						if _, ok := om[f]; ok {
							disjoint = false
						} else {
							subset = false
						}
					}
					if s.SubsetOf(o) != subset || Disjoint(s, o) != disjoint || s.Equal(o) != (subset && len(m) == len(om)) {
						t.Fatalf("seed %d step %d: %v vs %v: SubsetOf/Disjoint/Equal = %v/%v/%v, model %v/%v/%v", seed, step, s, o,
							s.SubsetOf(o), Disjoint(s, o), s.Equal(o), subset, disjoint, subset && len(m) == len(om))
					}
				}
			}
		}
	}
}

// joinInts renders ints comma-separated, as FieldSet.String does inside its
// braces.
func joinInts(fs []int) string {
	out := ""
	for i, f := range fs {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(f)
	}
	return out
}

// TestFieldSetAddRange: indices outside [0, MaxField] are a programming
// error (SCA rejects UDF code that would produce them).
func TestFieldSetAddRange(t *testing.T) {
	var s FieldSet
	s.Add(MaxField)
	if !s.Has(MaxField) || s.Len() != 1 {
		t.Fatalf("MaxField not stored: %d members", s.Len())
	}
	for _, f := range []int{-1, MaxField + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", f)
				}
			}()
			s.Add(f)
		}()
	}
}
