package engine

import (
	"fmt"
	"math"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file pins the local strategies against each other and against the
// reference executor on adversarial keys: hash grouping against sort
// grouping, and the hash join — with either build side — against the merge
// join. Every strategy must emit the canonical order, so on forward edges,
// where nothing scrambles arrival order, their outputs are byte-identical
// even with many-to-many duplicates whose payloads all differ.

var strategyProgram = tac.MustParse(`
func reduce all($g) {
	$n := groupsize $g
	$i := 0
L:	if $i >= $n goto E
	$r := groupget $g $i
	$o := copyrec $r
	setfield $o 2 $n
	emit $o
	$i := $i + 1
	goto L
E:	return
}
func binary jn($l, $r) {
	$o := concat $l $r
	emit $o
}`)

// adversarialKeys mixes every kind, Int(1) beside Float(1), the ints a
// float64 comparison cannot tell apart, and — last, at indices 22 to 24 —
// NaNs of three different bit patterns, which are one key.
var adversarialKeys = append(append([]record.Value{
	record.Null, record.Bool(false), record.Bool(true), record.String(""), record.String("a"),
	record.Int(-1), record.Int(0), record.Int(1), record.Float(1), record.Float(1.5),
}, edgeNumbers...),
	record.Float(math.NaN()), record.Float(math.Float64frombits(0xfff8000000000000)),
	record.Float(math.Float64frombits(0x7ff0000000000bad)))

// localStrategies are the in-memory strategies of Reduce (key field 0 of L)
// and Match (L's field 0 against R's field 2).
var localStrategies = []struct {
	name  string
	kind  dataflow.OpKind
	local optimizer.Local
	build int
}{
	{"reduce-sort", dataflow.KindReduce, optimizer.LocalSortGroup, 0},
	{"reduce-hash", dataflow.KindReduce, optimizer.LocalHashGroup, 0},
	{"match-merge", dataflow.KindMatch, optimizer.LocalMergeJoin, 0},
	{"match-hash-build0", dataflow.KindMatch, optimizer.LocalHashJoin, 0},
	{"match-hash-build1", dataflow.KindMatch, optimizer.LocalHashJoin, 1},
}

// strategyPlan builds L (and R) → op → sink with every input shipped by ship.
func strategyPlan(t *testing.T, kind dataflow.OpKind, local optimizer.Local, build int, ship optimizer.Shipping) *optimizer.PhysPlan {
	source := func(name string) *optimizer.PhysPlan {
		return &optimizer.PhysPlan{Op: &dataflow.Operator{Name: name, Kind: dataflow.KindSource}, Local: optimizer.LocalScan}
	}
	op := &dataflow.Operator{Name: "op", Kind: kind, UDF: getUDF(t, strategyProgram, "all"), Keys: [][]int{{0}}}
	node := &optimizer.PhysPlan{Op: op, Inputs: []*optimizer.PhysPlan{source("L")}, Ship: []optimizer.Shipping{ship}, Local: local}
	if kind == dataflow.KindMatch {
		op.UDF, op.Keys = getUDF(t, strategyProgram, "jn"), [][]int{{0}, {2}}
		node.Inputs = append(node.Inputs, source("R"))
		node.Ship = append(node.Ship, ship)
		node.BuildSide = build
	}
	return &optimizer.PhysPlan{
		Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
		Inputs: []*optimizer.PhysPlan{node}, Ship: []optimizer.Shipping{optimizer.ShipForward}, Local: optimizer.LocalPipe,
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

// requireStrategiesAgree runs every local strategy over the sources and
// requires each to match the reference executor — byte for byte where the
// edges keep arrival order, as a bag otherwise — and, on ordered runs, the
// first strategy of its operator kind.
func requireStrategiesAgree(t *testing.T, sources map[string]record.DataSet, dop int, ship optimizer.Shipping) {
	t.Helper()
	ordered := ship == optimizer.ShipForward || dop == 1
	outs := make([]record.DataSet, len(localStrategies))
	first := map[dataflow.OpKind]int{}
	for si, s := range localStrategies {
		label := fmt.Sprintf("%s %v dop=%d", s.name, ship, dop)
		plan := strategyPlan(t, s.kind, s.local, s.build, ship)
		e := New(dop)
		for name, ds := range sources {
			e.AddSource(name, ds)
		}
		out, stats, err := e.Run(plan)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ref, refStats := mustRefRun(t, e, plan, label)
		requireSameCounters(t, stats, refStats, label)
		if !ordered {
			if !out.Equal(ref) {
				t.Fatalf("%s: output bag differs from the reference executor's", label)
			}
			continue
		}
		requireByteIdentical(t, out, ref, label+" vs reference")
		outs[si] = out
		if f, ok := first[s.kind]; ok {
			requireByteIdentical(t, out, outs[f], label+" vs "+localStrategies[f].name)
		} else {
			first[s.kind] = si
		}
	}
}

// TestLocalStrategiesAdversarialKeys compares every local strategy with the
// reference on keys found on one side only, many-to-many duplicates, mixed
// kinds, ints beyond 2^53 and NaNs, at DOPs that leave partitions empty.
func TestLocalStrategiesAdversarialKeys(t *testing.T) {
	var lKeys, rKeys []record.Value
	for i, k := range adversarialKeys {
		// Key i appears i%3 times on the left and (i+1)%4 times on the right.
		for c := 0; c < i%3; c++ {
			lKeys = append(lKeys, k)
		}
		for c := 0; c < (i+1)%4; c++ {
			rKeys = append(rKeys, k)
		}
	}
	// Interleave a second copy in reverse so duplicates do not arrive
	// adjacent.
	for i := len(adversarialKeys) - 1; i >= 0; i -= 2 {
		lKeys = append(lKeys, adversarialKeys[i])
		rKeys = append(rKeys, adversarialKeys[len(adversarialKeys)-1-i])
	}
	sources := strategySides(lKeys, rKeys)
	for _, dop := range differentialDOPs {
		for _, ship := range []optimizer.Shipping{optimizer.ShipForward, optimizer.ShipPartition} {
			requireStrategiesAgree(t, sources, dop, ship)
		}
	}
}

// TestExactNumericKeys pins exact numeric key equality: 2^53 and 2^53+1 are
// one float64 but two keys. A Reduce yields two groups of two under either
// grouping strategy, and a Match does not join the one to the other.
func TestExactNumericKeys(t *testing.T) {
	a, b := record.Int(1<<53), record.Int(1<<53+1)
	sources := strategySides([]record.Value{a, b, a, b}, []record.Value{b})
	for _, dop := range []int{1, 3} {
		for _, s := range localStrategies {
			label := fmt.Sprintf("%s dop=%d", s.name, dop)
			e := New(dop)
			for name, ds := range sources {
				e.AddSource(name, ds)
			}
			out, _, err := e.Run(strategyPlan(t, s.kind, s.local, s.build, optimizer.ShipPartition))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, r := range out {
				if s.kind == dataflow.KindReduce && r.Field(2).AsInt() != 2 {
					t.Errorf("%s: %v is in a group of %d, want 2", label, r, r.Field(2).AsInt())
				}
				if s.kind == dataflow.KindMatch && !r.Field(0).Equal(b) {
					t.Errorf("%s: joined %v to %v", label, r.Field(0), b)
				}
			}
			if want := map[dataflow.OpKind]int{dataflow.KindReduce: 4, dataflow.KindMatch: 2}[s.kind]; len(out) != want {
				t.Errorf("%s: %d records, want %d", label, len(out), want)
			}
		}
	}
}

// FuzzLocalStrategies decodes the bytes into a DOP and two record sides —
// each byte one record: its top bit the side, the rest a key from
// adversarialKeys, its position the payload — and requires hash grouping,
// sort grouping and the reference to agree, and the hash join with either
// build side, the merge join and the reference to agree, byte for byte.
func FuzzLocalStrategies(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		var sides [2][]record.Value
		for _, c := range data[1:] {
			sides[c>>7] = append(sides[c>>7], adversarialKeys[int(c&0x7f)%len(adversarialKeys)])
		}
		requireStrategiesAgree(t, strategySides(sides[0], sides[1]), 1+int(data[0]%4), optimizer.ShipForward)
	})
}

// TestHashGroupsAllocs pins hashGroups to a fixed number of arrays per call,
// whatever the number of records or groups. The map-of-slices grouping it
// replaced made 10,132 / 16,035 / 25,066 allocations on these inputs.
func TestHashGroupsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 10000
	keys := []int{0}
	var counts []float64
	for _, groups := range []int{10, 1000, 5000} {
		part := make([]record.Record, n)
		for i := range part {
			part[i] = record.Record{record.Int(int64(i % groups)), record.Int(int64(i))}
		}
		allocs := testing.AllocsPerRun(5, func() { hashGroups(part, keys) })
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

// TestHashJoinAllocsIgnoreUnmatchedProbes pins the probe side of the hash
// join: records that match nothing are streamed through the index and
// dropped, so adding them adds no allocation.
func TestHashJoinAllocsIgnoreUnmatchedProbes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := &dataflow.Operator{Name: "J", Kind: dataflow.KindMatch, UDF: getUDF(t, strategyProgram, "jn"), Keys: [][]int{{0}, {2}}}
	e := New(1)
	discard := func(record.Record) error { return nil }
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
			src := strategySides(keys[0], keys[1])
			in := []edge{{data: Partitioned{src["L"]}, keys: op.Keys[0]}, {data: Partitioned{src["R"]}, keys: op.Keys[1]}}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := e.hashJoin(t.Context(), op, in, build, 0, discard); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("build=%d, %d unmatched probe records: %.0f allocations", build, unmatched, allocs)
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Errorf("build=%d: hash join allocations %v grow with unmatched probe records", build, counts)
		}
	}
}
