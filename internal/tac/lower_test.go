package tac

import (
	"testing"

	"blackboxflow/internal/record"
)

// TestRunnerAllocsPerCall pins the copies a call makes as counts, on the
// three shapes of BenchmarkInterpreterMapCall: a record the call built is
// handed to the sink as it is, so each shape allocates once — the copyrec,
// the concat, the copyrec again — and emitting a parameter still clones it.
func TestRunnerAllocsPerCall(t *testing.T) {
	prog := MustParse(`
func map f1($ir) {
	$b := getfield $ir 1
	$or := copyrec $ir
	if $b >= 0 goto L
	$b := neg $b
	setfield $or 1 $b
L: emit $or
}
func binary jn($l, $r) {
	$o := concat $l $r
	emit $o
}
func reduce sum($g) {
	$first := groupget $g 0
	$or := copyrec $first
	$s := agg sum $g 1
	setfield $or 1 $s
	emit $or
}
func map pass($ir) {
	emit $ir
}`)
	in := record.Record{record.Int(2), record.Int(-3)}
	right := record.Record{record.Null, record.Null, record.Int(7)}
	group := GroupSource(Records{in, in, in})
	sink := func(record.Record) error { return nil }
	for _, c := range []struct {
		udf  string
		call func(r *Runner) error
	}{
		{"f1", func(r *Runner) error { return r.Map(in, sink) }},
		{"jn", func(r *Runner) error { return r.Binary(in, right, sink) }},
		{"sum", func(r *Runner) error { return r.Reduce(group, sink) }},
		{"pass", func(r *Runner) error { return r.Map(in, sink) }},
	} {
		f := mustFunc(t, prog, c.udf)
		r, err := NewInterp().NewRunner(f, f.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := c.call(r); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("%s: %.1f allocations per call, want 1", c.udf, allocs)
		}
	}
}

// TestGroupGetRecordCopiedBeforeWrite: a groupget result belongs to the
// group, so the first setfield copies it; the copy is then owned and goes to
// the sink as it is, and emitting it again clones — the input group is
// unchanged and the two outputs are distinct records.
func TestGroupGetRecordCopiedBeforeWrite(t *testing.T) {
	f := mustFunc(t, MustParse(`
func reduce f($g) {
	$r := groupget $g 0
	setfield $r 0 9
	emit $r
	emit $r
	setfield $r 1 8
	emit $r
}`), "f")
	member := record.Record{record.Int(1), record.Int(2)}
	out, err := collectReduce(NewInterp(), f, []record.Record{member})
	if err != nil {
		t.Fatal(err)
	}
	if !member.Equal(record.Record{record.Int(1), record.Int(2)}) {
		t.Fatalf("input group member written: %v", member)
	}
	want := []record.Record{
		{record.Int(9), record.Int(2)},
		{record.Int(9), record.Int(2)},
		{record.Int(9), record.Int(8)},
	}
	if len(out) != len(want) {
		t.Fatalf("emitted %v, want %v", out, want)
	}
	for i := range want {
		if !out[i].Equal(want[i]) {
			t.Fatalf("emitted %v, want %v", out, want)
		}
	}
	if &out[0][0] == &out[1][0] || &out[1][0] == &out[2][0] || &out[0][0] == &member[0] {
		t.Fatal("emitted records share storage")
	}
}

// TestUndefinedAndMisusedVariables pins the run-time checks the lowering
// keeps where mustDefined proves nothing, message for message: which carry
// the function name and which do not. Input field 0 is 0, so every
// conditional definition below is skipped.
func TestUndefinedAndMisusedVariables(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`func map f($ir) {
	$a := getfield $ir 0
	if $a == 0 goto USE
	$or := copyrec $ir
USE: emit $or
}`, "tac: instr 3: use of undefined record $or"},
		{`func map f($ir) {
	$a := getfield $ir 0
	if $a == 0 goto USE
	$or := newrec
USE: setfield $or 0 1
}`, "tac: f instr 3: $or is not a record"},
		{`func binary f($l, $r) {
	$a := getfield $l 0
	if $a == 0 goto USE
	$o := copyrec $r
USE: $c := concat $l $o
}`, "tac: instr 3: use of undefined record $o"},
		{`func map f($ir) {
	$or := copyrec $ir
	$x := $or + 1
}`, "tac: instr 1: $or is not a scalar"},
		{`func map f($ir) {
	$a := getfield $ir 0
	if $a == 0 goto USE
	$or := copyrec $ir
USE: $x := $or + 1
}`, "tac: instr 3: use of undefined variable $or"},
		{`func map f($ir) {
	$a := getfield $ir 0
	if $a == 0 goto USE
	$b := const 1
USE: if $b goto END
END: return
}`, "tac: f instr 3: tac: instr 3: use of undefined variable $b"},
		{`func reduce f($g) {
	$x := $g + 1
}`, "tac: instr 0: $g is not a scalar"},
	} {
		f := mustFunc(t, MustParse(c.src), "f")
		in := record.Record{record.Int(0)}
		_, err := collect(NewInterp(), f, f.Kind, func(r *Runner, emit sinkFn) error {
			switch f.Kind {
			case KindMap:
				return r.Map(in, emit)
			case KindBinary:
				return r.Binary(in, in, emit)
			}
			return r.Reduce(Records{in}, emit)
		})
		if err == nil || err.Error() != c.want {
			t.Errorf("err = %v, want %q\n%s", err, c.want, f)
		}
	}
}

// TestIntOrderComparesAsFloat pins the int/int compare-and-branch fast path
// to Value.Compare, which orders numeric kinds as float64: 2^53 and 2^53+1
// compare equal.
func TestIntOrderComparesAsFloat(t *testing.T) {
	f := mustFunc(t, MustParse(`
func map f($ir) {
	$a := getfield $ir 0
	$b := getfield $ir 1
	if $a < $b goto LT
	return
LT: emit $ir
}`), "f")
	for _, in := range []record.Record{
		{record.Int(1 << 53), record.Int(1<<53 + 1)},
		{record.Int(1), record.Int(2)},
		{record.Int(1), record.Float(1.5)},
	} {
		got, err := collectMap(NewInterp(), f, in)
		if err != nil {
			t.Fatal(err)
		}
		if want := in[0].Compare(in[1]) < 0; (len(got) == 1) != want {
			t.Errorf("%v: branch taken = %v, Value.Compare says %v", in, len(got) == 1, want)
		}
	}
}
