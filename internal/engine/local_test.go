package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/spill"
	"blackboxflow/internal/tac"
)

// This file pins the local stage against the reference executor on
// adversarial keys: key-index grouping against the reference's sort-based
// grouping, and the hash join — with either build side — against aligning
// sorted groups, as a spilled side is joined. Every path must emit the
// canonical order, so on forward edges, where nothing scrambles arrival
// order, their outputs are byte-identical even with many-to-many duplicates
// whose payloads all differ.

var strategyProgram = frontend.MustCompile(`
reduce all(g) {
	n := g.size()
	i := 0
	while i < n {
		r := g.at(i)
		o := copy(r)
		o[2] = n
		emit o
		i := i + 1
	}
}
` + concatJoin + coGroupScript)

// edgeNumbers are ints and integral floats around ±2^53 and ±2^63, where a
// float64 comparison would round distinct ints into one key.
var edgeNumbers = []record.Value{
	record.Int(1 << 53), record.Int(1<<53 + 1), record.Float(1 << 53), record.Float(1<<53 + 2),
	record.Int(-1<<53 - 1), record.Float(-1 << 53),
	record.Int(math.MaxInt64), record.Int(math.MaxInt64 - 1), record.Float(0x1p63),
	record.Int(math.MinInt64), record.Int(math.MinInt64 + 1), record.Float(-0x1p63),
}

// adversarialKeys mixes every kind, Int(1) beside Float(1), the ints a
// float64 comparison cannot tell apart, and — last, at indices 22 to 24 —
// NaNs of three different bit patterns, which are one key.
var adversarialKeys = append(append([]record.Value{
	record.Null, record.Bool(false), record.Bool(true), record.String(""), record.String("a"),
	record.Int(-1), record.Int(0), record.Int(1), record.Float(1), record.Float(1.5),
}, edgeNumbers...),
	record.Float(math.NaN()), record.Float(math.Float64frombits(0xfff8000000000000)),
	record.Float(math.Float64frombits(0x7ff0000000000bad)))

// strategyPlan builds L (and, but for a Reduce, R) → op → sink with every
// input shipped by ship.
func strategyPlan(t *testing.T, kind dataflow.OpKind, ship optimizer.Shipping) *optimizer.PhysPlan {
	source := func(name string) *optimizer.PhysPlan {
		return &optimizer.PhysPlan{Op: &dataflow.Operator{Name: name, Kind: dataflow.KindSource}}
	}
	op := &dataflow.Operator{Name: "op", Kind: kind, UDF: getUDF(t, strategyProgram, "all"), Keys: [][]int{{0}}}
	node := &optimizer.PhysPlan{Op: op, Inputs: []*optimizer.PhysPlan{source("L")}, Ship: []optimizer.Shipping{ship}}
	if kind != dataflow.KindReduce {
		op.UDF, op.Keys = getUDF(t, strategyProgram, map[dataflow.OpKind]string{dataflow.KindMatch: "jn", dataflow.KindCoGroup: "cg"}[kind]), [][]int{{0}, {2}}
		node.Inputs = append(node.Inputs, source("R"))
		node.Ship = append(node.Ship, ship)
	}
	return &optimizer.PhysPlan{
		Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
		Inputs: []*optimizer.PhysPlan{node}, Ship: []optimizer.Shipping{optimizer.ShipForward},
	}
}

// strategySides builds L records <key, i> and R records <⊥, ⊥, key, i>.
func strategySides(lKeys, rKeys []record.Value) map[string]record.DataSet {
	l := make(record.DataSet, len(lKeys))
	for i, k := range lKeys {
		l[i] = record.Record{k, record.Int(int64(i))}
	}
	r := make(record.DataSet, len(rKeys))
	for i, k := range rKeys {
		r[i] = record.Record{record.Null, record.Null, k, record.Int(int64(i))}
	}
	return map[string]record.DataSet{"L": l, "R": r}
}

// TestLocalStrategiesAdversarialKeys compares a Reduce, a Match building
// either side and a CoGroup with the reference on keys found on one side
// only, many-to-many duplicates, mixed kinds, ints beyond 2^53 and NaNs, at
// DOPs that leave partitions empty, on forward and partitioned edges (a
// suite of rows_test.go).
func TestLocalStrategiesAdversarialKeys(t *testing.T) { runSuite(t) }

// adversarialSides puts adversarialKeys on both sides: key i appears i%3
// times on the left and (i+1)%4 times on the right, then every other key
// again, in reverse, so duplicates do not arrive adjacent.
func adversarialSides() map[string]record.DataSet {
	var lKeys, rKeys []record.Value
	for i, k := range adversarialKeys {
		for c := 0; c < i%3; c++ {
			lKeys = append(lKeys, k)
		}
		for c := 0; c < (i+1)%4; c++ {
			rKeys = append(rKeys, k)
		}
	}
	for i := len(adversarialKeys) - 1; i >= 0; i -= 2 {
		lKeys = append(lKeys, adversarialKeys[i])
		rKeys = append(rKeys, adversarialKeys[len(adversarialKeys)-1-i])
	}
	return strategySides(lKeys, rKeys)
}

// FuzzLocalStrategies decodes the bytes into a DOP and two record sides —
// each byte one record: its top bit the side, the rest a key from
// adversarialKeys, its position the payload — and runs them through the
// harness's adversarial rows on forward edges and, with and without a
// one-byte budget, on partitioned ones: the grouping of a Reduce and a
// CoGroup, the hash join with either build side, and — where a collector
// overflows — the key-ordered runs it writes and the merge that reads them
// back must each agree with the reference byte for byte. A sum-Reduce over
// both sides' keys must come out the same with and without its combiner.
func FuzzLocalStrategies(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		var sides [2][]record.Value
		for _, c := range data[1:] {
			sides[c>>7] = append(sides[c>>7], adversarialKeys[int(c&0x7f)%len(adversarialKeys)])
		}
		dop := 1 + int(data[0]%4)
		sources := strategySides(sides[0], sides[1])
		newHarness(t, configs{dops: []int{dop}}, "").run(t, adversarialRows(t, sources, optimizer.ShipForward))
		newHarness(t, configs{dops: []int{dop}, budgets: both}, "").run(t, adversarialRows(t, sources, optimizer.ShipPartition))
		requireCombinerInvisible(t, append(sides[0], sides[1]...), dop)
	})
}

var combineLegProgram = frontend.MustCompile(`
reduce partial(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
reduce total(g) {
	out := new()
	out[0] = sum(g, 1)
	emit out
}`)

// requireCombinerInvisible runs a sum-Reduce over records <key, i> behind a
// partitioned edge at the given DOP, once plain and once combining with
// partial, and requires byte-identical output, the same counters, the
// reference executor's output, and — while no sender fills a batch — one
// combiner call per distinct key of each source partition. The final UDF
// emits only the sum: a key group may hold Int(1) beside Float(1), and
// which of them arrives first behind a shuffle is not fixed.
func requireCombinerInvisible(t *testing.T, keys []record.Value, dop int) {
	t.Helper()
	label := fmt.Sprintf("combining reduce over %d records dop=%d", len(keys), dop)
	sources := strategySides(keys, nil)
	plan := strategyPlan(t, dataflow.KindReduce, optimizer.ShipPartition)
	node := plan.Inputs[0]
	node.Op.UDF, node.Op.Combiner = getUDF(t, combineLegProgram, "total"), getUDF(t, combineLegProgram, "partial")
	e := New(dop)
	e.AddSource("L", sources["L"])
	plain, plainStats, err := e.Run(plan)
	if err != nil {
		t.Fatalf("%s (plain): %v", label, err)
	}
	node.Combinable = true
	combined, stats, err := e.Run(plan)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireByteIdentical(t, combined, plain, label+" vs plain")
	requireSameCounters(t, stats, plainStats, label)
	ref, _ := mustRefRun(t, e, plan, label)
	requireByteIdentical(t, combined, ref, label+" vs reference")

	if len(keys) > record.DefaultBatchCap {
		return // a sender flushes mid-stream: more than one call per key
	}
	parts := make([][]record.Record, dop)
	for i, r := range sources["L"] {
		parts[i%dop] = append(parts[i%dop], r)
	}
	want := 0
	for _, part := range parts {
		want += len(refGroupRecords(part, []int{0}))
	}
	if got := stats.TotalCombinerCalls(); got != want {
		t.Fatalf("%s: %d combiner calls, want one per distinct key per source partition (%d)", label, got, want)
	}
}

// TestHashGroupingEdgeKeys pins the hash grouper's dense-key compare
// against a stable sort and the spill path's merge where key equality is
// subtle — int 2^53 beside 2^53+1, float 2^53 beside int 2^53, -0.0 beside
// 0.0, NaNs of different bits — each as the last field of a two-field key
// whose first field repeats: hash grouping must form the groups a stable
// sort forms, in the same order, and the hash join, with either build side,
// must pair what aligning the sorted groups pairs, in the same order.
func TestHashGroupingEdgeKeys(t *testing.T) {
	last := []record.Value{
		record.Int(1 << 53), record.Int(1<<53 + 1), record.Float(1 << 53),
		record.Float(math.Copysign(0, -1)), record.Float(0), record.Int(0),
		record.Float(math.NaN()), record.Float(math.Float64frombits(0xfff8000000000000)),
		record.Float(math.Float64frombits(0x7ff0000000000bad)),
	}
	var l, r record.DataSet
	for i := range 4 * len(last) {
		k0, k1 := record.Int(int64(i%2)), last[i*5%len(last)]
		l = append(l, record.Record{k0, k1, record.Int(int64(i))})
		r = append(r, record.Record{record.Null, k0, last[i*7%len(last)], record.Int(int64(i))})
	}
	// sortGroups stably sorts recs into one run and reads it back as the
	// merge reads a spilled side: into groups.
	sortGroups := func(recs record.DataSet, keys []int) groupCursor {
		return spill.NewGroups([]spill.Cursor{spill.NewSliceCursor(sortedOn(recs, keys))}, keys)
	}
	var want record.DataSet
	c := sortGroups(l, []int{0, 1})
	for g, _ := c.Next(); g != nil; g, _ = c.Next() {
		want = append(append(want, g...), nil) // nil ends a group
	}
	var got record.DataSet
	for _, g := range new(grouper).groups(l, []int{0, 1}) {
		got = append(append(got, g...), nil)
	}
	requireByteIdentical(t, got, want, "hash groups vs sorted groups")

	op := &dataflow.Operator{Name: "J", Kind: dataflow.KindMatch, UDF: getUDF(t, strategyProgram, "jn"), Keys: [][]int{{0, 1}, {1, 2}}}
	join := func(label string, run func(udf *tac.Runner, emit func(record.Record) error) error) record.DataSet {
		udf, err := New(1).runner(op, tac.KindBinary, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out record.DataSet
		if err := run(udf, func(r record.Record) error { out = append(out, r); return nil }); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return out
	}
	merged := join("sorted groups", func(udf *tac.Runner, emit func(record.Record) error) error {
		_, err := matchAligned(t.Context(), op, udf, sortGroups(l, op.Keys[0]), sortGroups(r, op.Keys[1]), 0, emit)
		return err
	})
	if len(merged) == 0 {
		t.Fatal("aligning the sorted groups paired nothing")
	}
	for build := range 2 {
		in := []edge{{data: Partitioned{l}, keys: op.Keys[0]}, {data: Partitioned{r}, keys: op.Keys[1]}}
		hashed := join("hash join", func(udf *tac.Runner, emit func(record.Record) error) error {
			_, err := hashJoin(t.Context(), op, udf, in, build, 0, new(scratch), emit)
			return err
		})
		requireByteIdentical(t, hashed, merged, fmt.Sprintf("hash join build=%d vs sorted groups", build))
	}
}

// TestKeyIndexKindPaths: where every key of a field is an int, or every key
// a string, the key index compares and sorts them through
// record.Value.Compare's same-kind fast path; one float among the ints, or
// one int among the strings, takes a pair through its rank order. Both must
// form the groups a stable sort forms, in the same order, with one key
// field and with two.
func TestKeyIndexKindPaths(t *testing.T) {
	ints := []record.Value{record.Int(math.MaxInt64), record.Int(1<<53 + 1), record.Int(-1), record.Int(math.MinInt64),
		record.Int(1 << 53), record.Int(0), record.Int(math.MinInt64 + 1), record.Int(math.MaxInt64 - 1)}
	strs := []record.Value{record.String("b"), record.String(""), record.String("ab"), record.String("a"),
		record.String("\xff"), record.String("a\x00"), record.String("B")}
	for _, c := range []struct {
		name string
		keys []record.Value
	}{
		{"ints", ints},
		{"ints+float", append(slices.Clone(ints), record.Float(1<<53))},
		{"strings", strs},
		{"strings+int", append(slices.Clone(strs), record.Int(0))},
	} {
		var recs record.DataSet
		for i := range 5 * len(c.keys) {
			recs = append(recs, record.Record{c.keys[i*3%len(c.keys)], c.keys[i*5%len(c.keys)], record.Int(int64(i))})
		}
		for _, keys := range [][]int{{0}, {1, 0}} {
			want := sortedOn(recs, keys)
			var got record.DataSet
			for _, g := range new(grouper).groups(recs, keys) {
				got = append(got, g...)
			}
			requireByteIdentical(t, got, want, fmt.Sprintf("%s keys=%v: hash groups vs stable sort", c.name, keys))
		}
	}
}

// sortedOn returns recs stably sorted by the key fields: ascending key,
// arrival order within a key — the order the key index lays records out in.
func sortedOn(recs []record.Record, keys []int) []record.Record {
	recs = slices.Clone(recs)
	slices.SortStableFunc(recs, func(a, b record.Record) int { return a.CompareOn(b, keys) })
	return recs
}

// TestCombineAdversarialKeys runs the combining sender over adversarialKeys
// plus -0.0 beside 0: Int(1) and Float(1), -0.0 and 0, and the three NaNs
// must each combine into one group, and 2^53 and 2^53+1 must not. The long
// run fills batches, so senders flush and combine mid-stream.
func TestCombineAdversarialKeys(t *testing.T) {
	all := append(slices.Clone(adversarialKeys), record.Float(math.Copysign(0, -1)), record.Float(0))
	var keys []record.Value
	for i, k := range all {
		for c := 0; c <= i%3; c++ {
			keys = append(keys, k)
		}
	}
	for i := len(all) - 1; i >= 0; i -= 2 {
		keys = append(keys, all[i])
	}
	var long []record.Value
	for len(long) <= 3*record.DefaultBatchCap {
		long = append(long, keys...)
	}
	for dop := 1; dop <= 4; dop++ {
		requireCombinerInvisible(t, keys, dop)
		requireCombinerInvisible(t, long, dop)
	}
}

// TestMergeGroupsAllocs pins the spilling path's group stream: draining a
// group merge (spill.Groups) of sorted runs reuses one group buffer, so it
// costs the same few allocations — the cursors, the merge and its heads, and
// the buffer's growth to the largest group — for 100 keys as for 10,000.
func TestMergeGroupsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys := []int{0}
	var counts []float64
	for _, n := range []int{100, 10000} {
		runs := make([][]record.Record, 3)
		for i := range runs {
			for k := range n {
				runs[i] = append(runs[i], record.Record{record.Int(int64(k)), record.Int(int64(i))})
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			cursors := make([]spill.Cursor, len(runs))
			for i, run := range runs {
				cursors[i] = spill.NewSliceCursor(run)
			}
			c := spill.NewGroups(cursors, keys)
			groups := 0
			for g, err := c.Next(); g != nil || err != nil; g, err = c.Next() {
				if err != nil || len(g) != len(runs) {
					t.Fatalf("group %d: %d records, err %v; want %d records", groups, len(g), err, len(runs))
				}
				groups++
			}
			if groups != n {
				t.Fatalf("%d groups, want %d", groups, n)
			}
		})
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] > 16 {
		t.Errorf("merging 100 and 10,000 keys into groups allocates %v times, want the same and at most 16", counts)
	}
}

// TestHashGroupsAllocs pins the hash grouping of a Reduce or CoGroup side to
// a fixed number of arrays per call on a fresh grouper, whatever the number
// of records or groups. The map-of-slices grouping it replaced made
// 10,132 / 16,035 / 25,066 allocations on these inputs.
func TestHashGroupsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The first collection starts the collector's worker goroutines, whose
	// allocations AllocsPerRun would count against the first input here.
	runtime.GC()
	const n = 10000
	keys := []int{0}
	var counts []float64
	for _, groups := range []int{10, 1000, 5000} {
		part := make([]record.Record, n)
		for i := range part {
			part[i] = record.Record{record.Int(int64(i % groups)), record.Int(int64(i))}
		}
		allocs := testing.AllocsPerRun(5, func() { new(grouper).groups(part, keys) })
		t.Logf("hashGroups over %d records in %d groups: %.0f allocations", n, groups, allocs)
		if allocs > 16 {
			t.Errorf("hashGroups over %d records in %d groups allocates %.0f times, want at most 16", n, groups, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("hashGroups allocations %v vary with the group count", counts)
	}
}

// TestGroupingScratchPinsNoRecords pins the pooled grouping scratch: once a
// Reduce, a hash join and a CoGroup have run, resident and with every
// collector spilling, the groupers back in the pool hold no record and no
// key, so the records' storage and their string keys' bytes are collected.
// A collector's grouper goes back as its last run left it, so a run whose
// records it still held after the write would fail this.
func TestGroupingScratchPinsNoRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race: the pool keeps nothing to pin with")
	}
	slab, arena := runHashGrouping(t)
	runtime.GC()
	if slab.Value() != nil {
		t.Error("the input records are still reachable after the run: a pooled grouper pins them")
	}
	if arena.Value() != nil {
		t.Error("the input keys' bytes are still reachable after the run: a pooled grouper pins them")
	}
}

// runHashGrouping runs a Reduce, a hash join and a CoGroup, at DOP 2 behind
// partitioned edges, with no budget and with a one-byte one, over records
// carved from one Value slab and keyed on strings cut from one arena, and
// returns weak pointers to both.
func runHashGrouping(t *testing.T) (weak.Pointer[record.Value], weak.Pointer[byte]) {
	const n = 1024
	arena := strings.Repeat("abcdefghij", 10)
	slab := make([]record.Value, 6*n)
	l, r := make(record.DataSet, n), make(record.DataSet, n)
	for i := range n {
		key := record.String(arena[i%89 : i%89+6])
		l[i] = slab[6*i : 6*i+2 : 6*i+2]
		l[i][0], l[i][1] = key, record.Int(int64(i))
		r[i] = slab[6*i+2 : 6*i+6 : 6*i+6]
		r[i][2], r[i][3] = key, record.Int(int64(i))
	}
	e := New(2)
	e.AddSource("L", l)
	e.AddSource("R", r)
	for _, e.MemoryBudget = range []int{0, 1} {
		for _, kind := range []dataflow.OpKind{dataflow.KindReduce, dataflow.KindMatch, dataflow.KindCoGroup} {
			_, stats, err := e.Run(strategyPlan(t, kind, optimizer.ShipPartition))
			if err != nil {
				t.Fatal(err)
			}
			if spilled := stats.TotalSpillRuns() > 0; spilled != (e.MemoryBudget > 0) {
				t.Fatalf("%v budget=%d: spilled=%v", kind, e.MemoryBudget, spilled)
			}
		}
	}
	return weak.Make(&slab[0]), weak.Make(unsafe.StringData(arena))
}

// hashJoinAllocs measures the allocations of one resident concat hash join
// of L records <lKeys[i], i> and R records <⊥, ⊥, rKeys[i], i> on a fresh
// Runner and scratch, building the given side.
func hashJoinAllocs(t *testing.T, runs int, lKeys, rKeys []record.Value, build int) float64 {
	op := &dataflow.Operator{Name: "J", Kind: dataflow.KindMatch, UDF: getUDF(t, strategyProgram, "jn"), Keys: [][]int{{0}, {2}}}
	src := strategySides(lKeys, rKeys)
	in := []edge{{data: Partitioned{src["L"]}, keys: op.Keys[0]}, {data: Partitioned{src["R"]}, keys: op.Keys[1]}}
	e := New(1)
	return testing.AllocsPerRun(runs, func() {
		udf, err := e.runner(op, tac.KindBinary, 0)
		if err == nil {
			_, err = hashJoin(t.Context(), op, udf, in, build, 0, new(scratch), func(record.Record) error { return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestHashJoinAllocsIgnoreUnmatchedProbes pins the probe side of the hash
// join: records that match nothing are streamed through the index and
// dropped, so adding them adds no allocation.
func TestHashJoinAllocsIgnoreUnmatchedProbes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for build := 0; build < 2; build++ {
		var counts []float64
		for _, unmatched := range []int{0, 1000, 10000} {
			keys := make([][]record.Value, 2)
			for i := 0; i < 200; i++ {
				keys[0] = append(keys[0], record.Int(int64(i%50)))
				keys[1] = append(keys[1], record.Int(int64(i%70)))
			}
			for i := 0; i < unmatched; i++ {
				keys[1-build] = append(keys[1-build], record.Int(int64(1000+i)))
			}
			allocs := hashJoinAllocs(t, 5, keys[0], keys[1], build)
			t.Logf("build=%d, %d unmatched probe records: %.0f allocations", build, unmatched, allocs)
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Errorf("build=%d: hash join allocations %v grow with unmatched probe records", build, counts)
		}
	}
}

// TestHashJoinAllocsPerMatchedPair pins the matched side of the resident
// concat hash join: every joined pair builds one record, carved from the
// Match Runner's chunk, so the join allocates about once per 64 pairs (a
// chunk holds 64 of these 4-field records), not once per pair. Each probe
// record matches exactly one build key, as a foreign key matches its
// primary key.
func TestHashJoinAllocsPerMatchedPair(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const keys = 1000
	pairs := []int{1000, 10000, 100000}
	for build := 0; build < 2; build++ {
		var counts []float64
		for _, n := range pairs {
			lKeys := make([]record.Value, keys)
			for i := range lKeys {
				lKeys[i] = record.Int(int64(i))
			}
			rKeys := make([]record.Value, n)
			for i := range rKeys {
				rKeys[i] = record.Int(int64(i % keys))
			}
			allocs := hashJoinAllocs(t, 3, lKeys, rKeys, build)
			t.Logf("build=%d, %d matched pairs: %.0f allocations", build, n, allocs)
			counts = append(counts, allocs)
		}
		for k := 1; k < len(pairs); k++ {
			if grew := counts[k] - counts[0]; grew > float64(pairs[k]-pairs[0])/32 {
				t.Errorf("build=%d: %d more matched pairs cost %.0f more allocations, want at most one per 32 pairs", build, pairs[k]-pairs[0], grew)
			}
		}
	}
}
