package engine

import (
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// TestCombineFlushAllocs pins the combining sender's flush: grouping a
// batch through the sender's grouper and calling the combiner once per
// group costs a fixed number of allocations for a fixed number of groups,
// however many records the batch holds — and at most two, because the
// grouper's index and layout arrays are reused rather than rebuilt.
func TestCombineFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are not meaningful")
	}
	const groups = 16
	combine, err := tac.NewRunner(getUDF(t, combineProgram, "sumN"), tac.KindReduce)
	if err != nil {
		t.Fatal(err)
	}
	s := &sender{keys: []int{0}, combine: combine}
	var counts []float64
	for _, n := range []int{64, 256, record.DefaultBatchCap} {
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{record.Int(int64(i % groups)), record.Int(int64(i)), record.Int(1)}
		}
		allocs := testing.AllocsPerRun(20, func() {
			in := record.GetBatch()
			for _, r := range recs {
				in.Append(r)
			}
			out, err := s.combineBatch(in)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != groups {
				t.Fatalf("combined %d records into %d, want %d", n, out.Len(), groups)
			}
			record.PutBatch(out)
		})
		t.Logf("allocs per combined flush of %d records in %d groups: %.0f", n, groups, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("combined flush allocations %v vary with the record count", counts)
	}
	if counts[2] > 2 {
		t.Errorf("a combined flush allocates %.0f times, want at most 2", counts[2])
	}
}

// TestRunnerAllocRegression pins the one UDF entry point for every call
// shape the engine's hot loops use: the reusable frame and the emit sink
// add no frame and no result slice, and the UDF's own output is carved from
// the runner's chunk, so a call averages under one allocation.
func TestRunnerAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are not meaningful")
	}
	prog := frontend.MustCompile(`
map double(ir) {
	a := ir[0]
	out := copy(ir)
	out[0] = a * 2
	emit out
}
match jn(l, r) {
	o := concat(l, r)
	emit o
}
reduce sum(g) {
	first := g.at(0)
	out := copy(first)
	out[0] = sum(g, 0)
	emit out
}`)
	in := record.Record{record.Int(21), record.String("x")}
	group := []record.Record{in, in, in}
	sink := func(r record.Record) error { return nil }
	// The UDF's own output — copyrec/concat and the setfield copy-on-write —
	// comes from the chunk: one allocation serves over a hundred calls.
	for _, c := range []struct {
		name  string
		kind  tac.Kind
		floor float64
		call  func(r *tac.Runner) error
	}{
		{"double", tac.KindMap, 0, func(r *tac.Runner) error { return r.Map(in, sink) }},
		{"jn", tac.KindBinary, 0, func(r *tac.Runner) error { return r.Binary(in, in, sink) }},
		{"sum", tac.KindReduce, 0, func(r *tac.Runner) error { return r.Reduce(group, sink) }},
	} {
		fn, _ := prog.Lookup(c.name)
		runner, err := tac.NewRunner(fn, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.call(runner); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("allocs per %s call: %.1f", c.kind, allocs)
		if allocs > c.floor {
			t.Errorf("a %s call allocates %.1f times, want at most %.0f: the frame is reused and records come from the chunk", c.kind, allocs, c.floor)
		}
	}
}
