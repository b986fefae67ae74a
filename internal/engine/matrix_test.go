package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
)

// This file is the stage-matrix differential: handcrafted physical plans
// enumerate every combination of pipeline stage variants — operator ×
// per-edge shipping × fused chain length × combiner × memory budget × DOP ×
// transport — and each must produce the reference executor's output bytes
// and exact counters. Optimizer-produced plans only ever reach a corner of
// this space (a chain feeding a spilled CoGroup, or a plain shuffle over
// TCP, used to be reached by the seeded fuzz sweeps alone), so the plans
// here are built directly, including shippings no optimizer would choose:
// the pipeline promises the reference's answer for any plan, sensible or
// not.
//
// Byte comparison needs a scheduler-independent output order. Grouping and
// join operators emit canonical order, and every record here is a function
// of its key (the chain Maps preserve that), so the within-group arrival
// order a shuffle scrambles permutes identical records only. Sink and
// Cross impose no order of their own: behind a shipped edge — partitioned
// or broadcast, both arrive in whatever order the senders' batches
// interleave — their output is compared as a bag.

// matrixMaps generates the chain Maps for one input side: key in field k,
// value in field k+1. Each keeps "record = f(key)": a filter on the key, a
// rewrite of the value from the key and the value, and a multi-emitter of
// identical copies.
func matrixMaps(side string, k int) string {
	return fmt.Sprintf(`
map keep%[1]s(ir) {
	k := ir[%[2]d]
	m := k %% 3
	if m != 0 {
		emit ir
	}
}
map bump%[1]s(ir) {
	k := ir[%[2]d]
	v := ir[%[3]d]
	out := copy(ir)
	out[%[3]d] = v + k
	emit out
}
map twice%[1]s(ir) {
	emit ir
	out := copy(ir)
	emit out
}`, side, k, k+1)
}

var matrixProgram = frontend.MustCompile(matrixMaps("L", 0) + matrixMaps("R", 2) + `
reduce sum(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
match jn(l, r) {
	o := concat(l, r)
	emit o
}
cogroup cg(g1, g2) {
	out := new()
	n1 := g1.size()
	if n1 != 0 {
		r := g1.at(0)
		k := r[0]
	} else {
		r2 := g2.at(0)
		k := r2[2]
	}
	out[0] = k
	out[1] = sum(g1, 1)
	n2 := g2.size()
	out[3] = n2
	emit out
}`)

// matrixShape is one operator under test: its kind, local strategy and UDF.
type matrixShape struct {
	name   string
	kind   dataflow.OpKind
	local  optimizer.Local
	udf    string
	binary bool
	build  int // a hash join's BuildSide
	// canonical: the operator emits the engine's canonical order whatever
	// order its inputs arrived in.
	canonical bool
}

var matrixShapes = []matrixShape{
	{name: "sink", kind: dataflow.KindSink, local: optimizer.LocalPipe},
	{name: "reduce-sort", kind: dataflow.KindReduce, local: optimizer.LocalSortGroup, udf: "sum", canonical: true},
	{name: "reduce-hash", kind: dataflow.KindReduce, local: optimizer.LocalHashGroup, udf: "sum", canonical: true},
	{name: "cogroup", kind: dataflow.KindCoGroup, local: optimizer.LocalSortCoGrp, udf: "cg", binary: true, canonical: true},
	// Match strategies A and B hash-join (co-partitioned, or one side
	// broadcast) building either side; C merge-joins. The shipping sweep
	// below covers the placements of all three.
	{name: "match-hash-build0", kind: dataflow.KindMatch, local: optimizer.LocalHashJoin, udf: "jn", binary: true, canonical: true},
	{name: "match-hash-build1", kind: dataflow.KindMatch, local: optimizer.LocalHashJoin, udf: "jn", binary: true, build: 1, canonical: true},
	{name: "match-merge", kind: dataflow.KindMatch, local: optimizer.LocalMergeJoin, udf: "jn", binary: true, canonical: true},
	{name: "cross", kind: dataflow.KindCross, local: optimizer.LocalNestedLoop, udf: "jn", binary: true},
}

var matrixShips = []optimizer.Shipping{optimizer.ShipForward, optimizer.ShipPartition, optimizer.ShipBroadcast}

// matrixEdge builds one input of the operator: a source with nMaps chained
// Maps on top.
func matrixEdge(t *testing.T, side string, nMaps int) *optimizer.PhysPlan {
	node := &optimizer.PhysPlan{
		Op:    &dataflow.Operator{Name: side, Kind: dataflow.KindSource},
		Local: optimizer.LocalScan,
	}
	for _, name := range []string{"keep", "bump", "twice"}[:nMaps] {
		node = &optimizer.PhysPlan{
			Op:      &dataflow.Operator{Name: name + side, Kind: dataflow.KindMap, UDF: getUDF(t, matrixProgram, name+side)},
			Inputs:  []*optimizer.PhysPlan{node},
			Ship:    []optimizer.Shipping{optimizer.ShipForward},
			Local:   optimizer.LocalPipe,
			Chained: true,
		}
	}
	return node
}

// matrixPlan builds source(s) → chain(s) → operator → sink for one cell.
func matrixPlan(t *testing.T, sh matrixShape, ships []optimizer.Shipping, nMaps int, combine bool) *optimizer.PhysPlan {
	inputs := []*optimizer.PhysPlan{matrixEdge(t, "L", nMaps)}
	keys := [][]int{{0}}
	if sh.binary {
		inputs = append(inputs, matrixEdge(t, "R", nMaps))
		keys = append(keys, []int{2})
	}
	if sh.kind == dataflow.KindSink {
		return &optimizer.PhysPlan{
			Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
			Inputs: inputs, Ship: ships, Local: sh.local,
		}
	}
	op := &dataflow.Operator{Name: "op", Kind: sh.kind, UDF: getUDF(t, matrixProgram, sh.udf), Keys: keys}
	if combine {
		op.Combiner = op.UDF
	}
	node := &optimizer.PhysPlan{Op: op, Inputs: inputs, Ship: ships, Local: sh.local, BuildSide: sh.build, Combinable: combine}
	return &optimizer.PhysPlan{
		Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
		Inputs: []*optimizer.PhysPlan{node},
		Ship:   []optimizer.Shipping{optimizer.ShipForward},
		Local:  optimizer.LocalPipe,
	}
}

// matrixSources builds the inputs: every record a function of its key, keys
// repeated so groups have several (identical) members, the two sides' key
// ranges overlapping in part. Cross gets small inputs; the rest enough
// records that a one-batch budget overflows at DOP > 1. Every record has
// Null room, so a UDF wrongly handed a source row could widen it in place
// and the source canary would see it.
func matrixSources(cross bool) map[string]record.DataSet {
	nL, nR, keysL, keysR, rLo := 360, 280, 45, 40, 20
	if cross {
		nL, nR, keysL, keysR, rLo = 14, 9, 7, 5, 3
	}
	roomy := func(vs ...record.Value) record.Record { return append(make(record.Record, 0, 8), vs...) }
	l := make(record.DataSet, nL)
	for i := range l {
		k := int64(i % keysL)
		l[i] = roomy(record.Int(k), record.Int(k*3+1))
	}
	r := make(record.DataSet, nR)
	for i := range r {
		k := int64(i%keysR + rLo)
		r[i] = roomy(record.Null, record.Null, record.Int(k), record.Int(k*5+2))
	}
	return map[string]record.DataSet{"L": l, "R": r}
}

// sourceSnapshot is a deep copy of an engine's registered sources, each
// record's room up to its capacity included.
type sourceSnapshot map[string]record.DataSet

func snapshotSources(e *Engine) sourceSnapshot {
	s := sourceSnapshot{}
	for name, ds := range e.Sources {
		c := make(record.DataSet, len(ds))
		for i, r := range ds {
			c[i] = make(record.Record, len(r), cap(r))
			copy(c[i][:cap(r)], r[:cap(r)])
		}
		s[name] = c
	}
	return s
}

// requireSourcesIntact is the source canary: no run may write a source row,
// within its length or past it.
func requireSourcesIntact(t *testing.T, e *Engine, want sourceSnapshot, label string) {
	t.Helper()
	for name, ds := range e.Sources {
		for i, r := range ds {
			if !intact(r, want[name][i]) {
				t.Fatalf("%s: source %s record %d is %v, was %v", label, name, i, r[:cap(r)], want[name][i][:cap(want[name][i])])
			}
		}
	}
}

// intact reports whether r still has was's length, capacity and Values.
func intact(r, was record.Record) bool {
	return len(r) == len(was) && cap(r) == cap(was) && slices.Equal(r[:cap(r)], was[:cap(was)])
}

// canaryTransport is the broadcast canary: it wraps a transport and keeps a
// deep copy, room included, of every record a session sends, as of its
// first send. A record sent to two targets is a broadcast input, which every
// partition reads, so no run may write it; broken lists those that changed.
type canaryTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent map[*record.Value]canaryRecord // by the record's storage
}

type canaryRecord struct {
	rec, was record.Record
	targets  map[int]bool
}

type canaryShuffle struct {
	transport.Shuffle
	c *canaryTransport
}

func (c *canaryTransport) OpenShuffle(ctx context.Context, spec transport.Spec) (transport.Shuffle, error) {
	sh, err := c.Transport.OpenShuffle(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &canaryShuffle{sh, c}, nil
}

func (s *canaryShuffle) Send(target int, b *record.Batch) error {
	c := s.c
	c.mu.Lock()
	for _, r := range b.Records() {
		if cap(r) == 0 {
			continue
		}
		sr, ok := c.sent[unsafe.SliceData(r)]
		if !ok {
			was := make(record.Record, len(r), cap(r))
			copy(was[:cap(r)], r[:cap(r)])
			sr = canaryRecord{rec: r, was: was, targets: map[int]bool{}}
			c.sent[unsafe.SliceData(r)] = sr
		}
		sr.targets[target] = true
	}
	c.mu.Unlock()
	return s.Shuffle.Send(target, b)
}

// start forgets the last run's records.
func (c *canaryTransport) start() {
	c.sent = map[*record.Value]canaryRecord{}
}

// broken returns the broadcast records the last run wrote, and how many it
// checked.
func (c *canaryTransport) broken() (bad []record.Record, checked int) {
	for _, sr := range c.sent {
		if len(sr.targets) < 2 {
			continue
		}
		checked++
		if !intact(sr.rec, sr.was) {
			bad = append(bad, sr.was)
		}
	}
	return bad, checked
}

// TestDifferentialStageMatrix runs every cell of the stage matrix through
// the pipeline — on the channel transport and over TCP to two workers,
// unlimited and under a one-byte budget — against one reference run per
// plan and DOP, and checks after every run that the sources and the
// broadcast inputs are intact.
func TestDifferentialStageMatrix(t *testing.T) {
	addrs := startWorkerAddrs(t, 2)
	tcp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	spillDir := t.TempDir()
	chains := []int{0, 1, 3}
	transports := []*canaryTransport{{Transport: transport.Channel{}}, {Transport: tcp}}

	cells, spilled, combined, broadcasts := 0, 0, 0, 0
	for _, sh := range matrixShapes {
		sources := matrixSources(sh.kind == dataflow.KindCross)
		var shipSets [][]optimizer.Shipping
		for _, l := range matrixShips {
			if !sh.binary {
				shipSets = append(shipSets, []optimizer.Shipping{l})
				continue
			}
			for _, r := range matrixShips {
				shipSets = append(shipSets, []optimizer.Shipping{l, r})
			}
		}
		for _, ships := range shipSets {
			// Sink and Cross keep arrival order, which shipping scrambles.
			ordered := true
			for _, s := range ships {
				if !sh.canonical && s != optimizer.ShipForward {
					ordered = false
				}
			}
			combiners := []bool{false}
			if sh.kind == dataflow.KindReduce && ships[0] == optimizer.ShipPartition {
				combiners = []bool{false, true}
			}
			for _, nMaps := range chains {
				for _, combine := range combiners {
					plan := matrixPlan(t, sh, ships, nMaps, combine)
					for _, dop := range differentialDOPs {
						label := fmt.Sprintf("%s %v chain=%d combiner=%v dop=%d", sh.name, ships, nMaps, combine, dop)
						e := New(dop)
						e.SpillDir = spillDir
						for name, ds := range sources {
							e.AddSource(name, ds)
						}
						snap := snapshotSources(e)
						ref, refStats := mustRefRun(t, e, plan, label)
						for k, tp := range transports {
							for _, budget := range []int{0, 1} {
								e.Transport, e.MemoryBudget = tp, budget
								cell := fmt.Sprintf("%s budget=%d tcp=%v", label, budget, k == 1)
								tp.start()
								out, stats, err := e.Run(plan)
								if err != nil {
									t.Fatalf("%s: %v", cell, err)
								}
								requireSourcesIntact(t, e, snap, cell)
								bad, checked := tp.broken()
								if len(bad) > 0 {
									t.Fatalf("%s: %d broadcast records written by the run, e.g. %v", cell, len(bad), bad[0])
								}
								broadcasts += checked
								if ordered {
									requireByteIdentical(t, out, ref, cell)
								} else if !out.Equal(ref) {
									t.Fatalf("%s: output bag differs from the reference executor's", cell)
								}
								requireSameCounters(t, stats, refStats, cell)
								if budget == 0 && stats.TotalSpillRuns() != 0 {
									t.Fatalf("%s: spilled %d runs without a budget", cell, stats.TotalSpillRuns())
								}
								if combine != (stats.TotalCombinerCalls() > 0) {
									t.Fatalf("%s: %d combiner calls", cell, stats.TotalCombinerCalls())
								}
								if stats.TotalSpillRuns() > 0 {
									spilled++
								}
								if combine {
									combined++
								}
								cells++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells, %d spilled, %d combined, %d broadcast records checked", cells, spilled, combined, broadcasts)
	if spilled == 0 || combined == 0 || broadcasts == 0 {
		t.Fatalf("matrix never spilled (%d), combined (%d) or broadcast (%d): an axis exercises nothing", spilled, combined, broadcasts)
	}
}
