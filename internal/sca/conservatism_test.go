package sca

import (
	"fmt"
	"math/rand"
	"testing"

	"blackboxflow/internal/props"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file empirically validates the paper's safety-through-conservatism
// claim (Section 5): for randomly generated UDFs, the statically estimated
// read and write sets must be supersets of the behaviourally observed ones.
//
// The observed read set is measured by sensitivity analysis: a field is
// *observably read* if perturbing it changes the UDF's output on some other
// attribute or the output cardinality (Definition 3). The observed write
// set contains fields whose output value differs from the input value on
// some record (Definition 2).

// randomUDF generates a small random Map UDF over `width` fields.
func randomUDF(rng *rand.Rand, width int) string {
	f1, f2, f3 := rng.Intn(width), rng.Intn(width), rng.Intn(width)
	c := rng.Intn(9) - 4
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf(`
func map f($ir) {
	$a := getfield $ir %d
	if $a < %d goto S
	emit $ir
S: return
}`, f1, c)
	case 1:
		return fmt.Sprintf(`
func map f($ir) {
	$a := getfield $ir %d
	$b := getfield $ir %d
	$s := $a * $b
	$or := copyrec $ir
	setfield $or %d $s
	emit $or
}`, f1, f2, f3)
	case 2:
		return fmt.Sprintf(`
func map f($ir) {
	$a := getfield $ir %d
	$or := copyrec $ir
	if $a >= 0 goto E
	$n := neg $a
	setfield $or %d $n
E: emit $or
}`, f1, f1)
	case 3: // projection via newrec with explicit copies
		return fmt.Sprintf(`
func map f($ir) {
	$x := getfield $ir %d
	$or := newrec
	setfield $or %d $x
	$y := getfield $ir %d
	$s := $y + %d
	setfield $or %d $s
	emit $or
}`, f1, f1, f2, c, f3)
	case 4: // multi-emit
		return fmt.Sprintf(`
func map f($ir) {
	emit $ir
	$a := getfield $ir %d
	if $a < %d goto S
	$or := copyrec $ir
	setfield $or %d %d
	emit $or
S: return
}`, f1, c, f2, c)
	case 5: // explicit projection
		return fmt.Sprintf(`
func map f($ir) {
	$or := copyrec $ir
	setfield $or %d null
	emit $or
}`, f1)
	case 6: // chained arithmetic into a different field
		return fmt.Sprintf(`
func map f($ir) {
	$a := getfield $ir %d
	$b := $a + 1
	$cc := $b * 2
	$or := copyrec $ir
	setfield $or %d $cc
	emit $or
}`, f1, f2)
	default: // conditional on two fields
		return fmt.Sprintf(`
func map f($ir) {
	$a := getfield $ir %d
	$b := getfield $ir %d
	if $a > $b goto S
	emit $ir
S: return
}`, f1, f2)
	}
}

// observedSets measures the behavioural read and write sets of f over a
// set of probe records.
// collectMap makes one Map call on a fresh tac.Runner and gathers what the
// UDF emits.
func collectMap(ip *tac.Interp, f *tac.Func, in record.Record) ([]record.Record, error) {
	r, err := ip.NewRunner(f, tac.KindMap)
	if err != nil {
		return nil, err
	}
	var out []record.Record
	err = r.Map(in, func(rec record.Record) error { out = append(out, rec); return nil })
	return out, err
}

func observedSets(t *testing.T, f *tac.Func, width int, rng *rand.Rand) (readSet, writeSet props.FieldSet) {
	t.Helper()
	ip := tac.NewInterp()
	readSet, writeSet = props.FieldSet{}, props.FieldSet{}

	probe := func() record.Record {
		r := make(record.Record, width)
		for i := range r {
			r[i] = record.Int(int64(rng.Intn(9) - 4))
		}
		return r
	}

	for trial := 0; trial < 200; trial++ {
		in := probe()
		out, err := collectMap(ip, f, in)
		if err != nil {
			t.Fatalf("%v on %v", err, in)
		}
		// Write set: an output record differing from the input on field k.
		for _, o := range out {
			for k := 0; k < width; k++ {
				if !o.Field(k).Equal(in.Field(k)) {
					writeSet.Add(k)
				}
			}
			if len(o) > width {
				for k := width; k < len(o); k++ {
					if !o.Field(k).IsNull() {
						writeSet.Add(k)
					}
				}
			}
		}
		// Read set: perturb each field and look for changes on *other*
		// attributes or in cardinality (Definition 3).
		for n := 0; n < width; n++ {
			mut := in.Clone()
			mut.SetField(n, record.Int(in.Field(n).AsInt()+7))
			mout, err := collectMap(ip, f, mut)
			if err != nil {
				t.Fatalf("%v on %v", err, mut)
			}
			if len(mout) != len(out) {
				readSet.Add(n)
				continue
			}
			for i := range out {
				for k := 0; k < maxLen(out[i], mout[i]); k++ {
					if k == n {
						continue // same-attribute change is not a read
					}
					if !out[i].Field(k).Equal(mout[i].Field(k)) {
						readSet.Add(n)
					}
				}
			}
		}
	}
	return readSet, writeSet
}

func maxLen(a, b record.Record) int {
	if len(a) > len(b) {
		return len(a)
	}
	return len(b)
}

// TestSCAConservatismRandomUDFs: estimated ⊇ observed, for both read and
// write sets, over hundreds of random UDFs.
func TestSCAConservatismRandomUDFs(t *testing.T) {
	const width = 4
	inputs := []props.FieldSet{props.NewFieldSet(0, 1, 2, 3)}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(777 + trial)))
		src := randomUDF(rng, width)
		prog, err := tac.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		f, _ := prog.Lookup("f")
		eff, err := Analyze(f)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		estR := eff.ResolveRead(inputs)
		estW := eff.ResolveWrite(inputs)
		obsR, obsW := observedSets(t, f, width, rng)

		if !obsR.SubsetOf(estR) {
			t.Errorf("trial %d: observed reads %v ⊄ estimated %v\n%s", trial, obsR, estR, src)
		}
		if !obsW.SubsetOf(estW) {
			t.Errorf("trial %d: observed writes %v ⊄ estimated %v\n%s", trial, obsW, estW, src)
		}

		// Emit bounds must also be conservative.
		ip := tac.NewInterp()
		for probe := 0; probe < 50; probe++ {
			in := make(record.Record, width)
			for i := range in {
				in[i] = record.Int(int64(rng.Intn(9) - 4))
			}
			out, err := collectMap(ip, f, in)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < eff.EmitMin {
				t.Errorf("trial %d: emitted %d < EmitMin %d\n%s", trial, len(out), eff.EmitMin, src)
			}
			if eff.EmitMax != props.Unbounded && len(out) > eff.EmitMax {
				t.Errorf("trial %d: emitted %d > EmitMax %d\n%s", trial, len(out), eff.EmitMax, src)
			}
		}
	}
}
