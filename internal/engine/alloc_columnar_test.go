package engine

import (
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// Allocation regressions for the columnar path: the column builders must
// not box values per record at steady state, the vectorized combine must
// allocate proportionally to group count (not record count), and the
// reusable tac.Runner must stay within the clone-per-emit floor.

// TestColBatchAppendAllocRegression pins the column builders: once the
// per-column arrays have grown to capacity, re-filling a reset ColBatch —
// including dictionary hits on recurring strings — allocates nothing per
// record.
func TestColBatchAppendAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are not meaningful")
	}
	const n = 512
	recs := make([]record.Record, n)
	words := []string{"alpha", "beta", "gamma"}
	for i := range recs {
		recs[i] = record.Record{
			record.Int(int64(i % 19)),
			record.String(words[i%len(words)]),
			record.Float(float64(i) + 0.5),
		}
	}
	cb := record.NewColBatch(n)
	for _, r := range recs { // grow arrays and the dictionary once
		cb.Append(r)
	}
	allocs := testing.AllocsPerRun(10, func() {
		cb.Reset()
		for _, r := range recs {
			cb.Append(r)
		}
	})
	t.Logf("allocs per refill of %d records: %.0f", n, allocs)
	if allocs > float64(n)/50 {
		t.Errorf("steady-state ColBatch refill allocates %.0f times for %d records — the builders are boxing per record", allocs, n)
	}
}

// TestColBatchCombineIntoAllocRegression pins the vectorized combine: with
// the combiner's own output held constant, CombineInto over n records in g
// groups must allocate on the order of g (bucket rows, group views), never
// n (per-record boxes or re-hashed keys).
func TestColBatchCombineIntoAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are not meaningful")
	}
	const (
		n      = 1024
		groups = 16
	)
	keys := []int{0}
	cb := record.NewColBatch(n)
	for i := 0; i < n; i++ {
		r := record.Record{record.Int(int64(i % groups)), record.Int(int64(i))}
		cb.AppendWithHash(r, keys, r.Hash(keys))
	}
	combined := record.Record{record.Int(0), record.Int(0)}
	out := record.NewBatch(n)
	allocs := testing.AllocsPerRun(10, func() {
		out.Reset()
		if _, err := cb.CombineInto(keys, out, func(g record.ColGroup, emit func(record.Record) error) error {
			return emit(combined)
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per CombineInto of %d records in %d groups: %.0f", n, groups, allocs)
	if allocs > float64(n)/8 {
		t.Errorf("CombineInto allocates %.0f times for %d records in %d groups — scaling with records, not groups", allocs, n, groups)
	}
}

// TestRunnerAllocRegression pins the one UDF entry point for every call
// shape the engine's hot loops use: the reusable frame and the emit sink keep
// a call at the cost of the UDF's own output — no frame, no result slice.
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
	group := tac.GroupSource(tac.Records{in, in, in})
	sink := func(r record.Record) error { return nil }
	// The UDF's own output: copyrec/concat, the setfield copy-on-write and
	// the emitted clone. The runner must add nothing to it.
	for _, c := range []struct {
		name  string
		kind  tac.Kind
		floor float64
		call  func(r *tac.Runner) error
	}{
		{"double", tac.KindMap, 3, func(r *tac.Runner) error { return r.Map(in, sink) }},
		{"jn", tac.KindBinary, 2, func(r *tac.Runner) error { return r.Binary(in, in, sink) }},
		{"sum", tac.KindReduce, 3, func(r *tac.Runner) error { return r.Reduce(group, sink) }},
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
			t.Errorf("a %s call allocates %.1f times; the reusable frame should keep it at the UDF's own output cost (≤%.0f)", c.kind, allocs, c.floor)
		}
	}
}
