package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/props"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/transport"
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
		{"jn", tac.KindBinary, 0, func(r *tac.Runner) error { return r.Binary(in, in, 0, sink) }},
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

// TestMatchChainReusesOwnedRecords pins the handover on the Q7 join path: k
// foreign-key concat Matches on forward edges, each joining a broadcast
// dimension into a probe record built by a chained Map, allocate about the
// same bytes per probe record for k = 1 and k = 5. The Map carves each
// probe record once with room for the plan's record width; every Match is
// handed the record at its only pairing and widens it in place, so only the
// per-operator record headers grow with k, not a copy of the record per
// join. A probe record holds 64 fields; dimension j keys on field j and adds
// field 64+j.
func TestMatchChainReusesOwnedRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		n     = 4096 // probe records
		keys  = 16   // per dimension
		width = 64   // probe record fields
	)
	prog := frontend.MustCompile(`
map pass(ir) {
	emit ir
}
match concatJoin(l, r) {
	o := concat(l, r)
	emit o
}`)
	source := func(name string, attrs []int, recs record.DataSet) (*optimizer.PhysPlan, record.DataSet) {
		return &optimizer.PhysPlan{
			Op: &dataflow.Operator{Name: name, Kind: dataflow.KindSource, SourceAttrs: props.NewFieldSet(attrs...)},
		}, recs
	}
	perRecord := func(k int) float64 {
		probeAttrs := make([]int, width)
		probe := make(record.DataSet, n)
		for i := range probe {
			r := make(record.Record, width)
			for f := range r {
				r[f] = record.Int(int64((i + f) % keys))
			}
			probe[i] = r
		}
		for f := range probeAttrs {
			probeAttrs[f] = f
		}
		e := New(2)
		node, data := source("P", probeAttrs, probe)
		e.AddSource("P", data)
		node = &optimizer.PhysPlan{
			Op:     &dataflow.Operator{Name: "pass", Kind: dataflow.KindMap, UDF: getUDF(t, prog, "pass")},
			Inputs: []*optimizer.PhysPlan{node}, Ship: []optimizer.Shipping{optimizer.ShipForward},
			Chained: true,
		}
		for j := 0; j < k; j++ {
			dim := make(record.DataSet, keys)
			for key := range dim {
				r := make(record.Record, width+j+1)
				r[j], r[width+j] = record.Int(int64(key)), record.Int(int64(key*10+j))
				dim[key] = r
			}
			name := fmt.Sprintf("D%d", j)
			d, data := source(name, []int{j, width + j}, dim)
			e.AddSource(name, data)
			node = &optimizer.PhysPlan{
				Op: &dataflow.Operator{Name: fmt.Sprintf("J%d", j), Kind: dataflow.KindMatch,
					UDF: getUDF(t, prog, "concatJoin"), Keys: [][]int{{j}, {j}}},
				Inputs:    []*optimizer.PhysPlan{node, d},
				Ship:      []optimizer.Shipping{optimizer.ShipForward, optimizer.ShipBroadcast},
				BuildSide: 1,
			}
		}
		plan := &optimizer.PhysPlan{
			Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
			Inputs: []*optimizer.PhysPlan{node}, Ship: []optimizer.Shipping{optimizer.ShipForward},
		}
		run := func() {
			out, _, err := e.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n || len(out[0]) != width+k {
				t.Fatalf("k=%d: %d records of %d fields, want %d of %d", k, len(out), len(out[0]), n, width+k)
			}
		}
		run()
		runtime.GC()
		var before, after runtime.MemStats
		const runs = 5
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	}
	one, five := perRecord(1), perRecord(5)
	t.Logf("bytes allocated per probe record: %.0f through 1 Match, %.0f through 5", one, five)
	if five > 1.5*one {
		t.Errorf("5 Matches allocate %.0f bytes per probe record, 1 Match %.0f: more than 1.5x, so the chain copies what it was handed", five, one)
	}
}

// TestTCPReduceTakesSlabsFromPool pins the receive side's slab recycling: a
// Reduce fed over TCP decodes every frame into a pooled slab and gives the
// slabs back when its local stage ends, so a second run of the same plan
// allocates no slab. One P keeps every released slab within reach of the
// next Get (sync.Pool keeps one private object per P), two collections
// empty the pools first, and no collection runs in between.
func TestTCPReduceTakesSlabsFromPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: startWorkerAddrs(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	fd := wordcountFlow("sumPerWord", 6000, 300, 22, false)
	plan := fd.plan(t, 4)
	e := New(4).WithTransport(tp)
	for name, ds := range wordcountData(6000, 300) {
		e.AddSource(name, ds)
	}
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var made [2]int64
	for i := range made {
		before := record.SlabsMade()
		out, stats, err := e.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 300 || stats.TotalShippedBytes() == 0 {
			t.Fatalf("run %d: %d groups and %d shipped bytes, want 300 groups and a shuffle", i+1, len(out), stats.TotalShippedBytes())
		}
		made[i] = record.SlabsMade() - before
	}
	if made[0] == 0 || made[1] != 0 {
		t.Errorf("slabs allocated by the first and second runs: %v, want some and then none", made)
	}
}
