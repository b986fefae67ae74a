package engine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/spill"
	"blackboxflow/internal/tac"
)

// This file is the local stage of the pipeline. Grouping and join
// operators read every input side as a stream of key groups in ascending
// key order with records in arrival order inside a group — the engine's
// canonical order. sideGroups builds that stream from a side's resident
// records plus its spilled runs; with no runs the external merge
// degenerates to walking the sorted (or hash-grouped) resident records.
// Because every variant emits the same order, a plan produces
// byte-identical output whichever local strategy runs it and whether zero,
// some, or all partitions overflowed the memory budget. See DESIGN.md
// ("Memory model & spilling").

// local runs the operator's local strategy on every partition in parallel.
func (e *Engine) local(ctx context.Context, p *optimizer.PhysPlan, in []edge) (Partitioned, int, error) {
	op := p.Op
	switch op.Kind {
	case dataflow.KindSource:
		data, ok := e.Sources[op.Name]
		if !ok {
			return nil, 0, &opError{op.Name, errors.New("no data registered for this source")}
		}
		return e.scatter(data), 0, nil

	case dataflow.KindSink:
		return in[0].data, 0, nil

	case dataflow.KindMap:
		// A Map that is an operator of its own is a chain of length one.
		counts := make([]opCount, 1)
		out, err := e.runChain(ctx, in[0].data, []*optimizer.PhysPlan{p}, counts)
		return out, counts[0].calls, err

	case dataflow.KindReduce:
		return fanOut(len(in[0].data), func(i int, emit func(record.Record) error) (int, error) {
			groups, err := e.sideGroups(&in[0], i, p.Local == optimizer.LocalHashGroup)
			if err != nil {
				return 0, err
			}
			return e.reduceGroups(ctx, op, groups, emit)
		})

	case dataflow.KindMatch, dataflow.KindCoGroup:
		// A hash join indexes its BuildSide and probes it with the other
		// side; where either side spilled, both are read as group streams —
		// the spilled one merging its sorted runs, as the merge join and the
		// co-group always do.
		align, hashed := e.coGroupAligned, false
		if op.Kind == dataflow.KindMatch {
			align, hashed = e.matchAligned, p.Local == optimizer.LocalHashJoin
		}
		return fanOut(len(in[0].data), func(i int, emit func(record.Record) error) (int, error) {
			if hashed && !in[0].spilled(i) && !in[1].spilled(i) {
				return e.hashJoin(ctx, op, in, p.BuildSide, i, emit)
			}
			l, err := e.sideGroups(&in[0], i, hashed)
			if err != nil {
				return 0, err
			}
			r, err := e.sideGroups(&in[1], i, hashed)
			if err != nil {
				return 0, err
			}
			return align(ctx, op, l, r, emit)
		})

	case dataflow.KindCross:
		return fanOut(len(in[0].data), func(i int, emit func(record.Record) error) (int, error) {
			udf, err := e.runner(op, tac.KindBinary)
			if err != nil {
				return 0, err
			}
			calls := 0
			var tick ticker
			for _, lr := range in[0].data[i] {
				for _, rr := range in[1].data[i] {
					if tick.due() && context.Cause(ctx) != nil {
						return 0, context.Cause(ctx)
					}
					if err := udfError(op, udf.Binary(lr, rr, emit)); err != nil {
						return 0, err
					}
					calls++
				}
			}
			return calls, nil
		})

	default:
		return nil, 0, &opError{op.Name, fmt.Errorf("cannot execute %s", op.Kind)}
	}
}

// scatter round-robins source data across partitions, each allocated once
// at the size it ends with.
func (e *Engine) scatter(data record.DataSet) Partitioned {
	out := make(Partitioned, e.DOP)
	for t := range out {
		out[t] = make([]record.Record, 0, (len(data)-t+e.DOP-1)/e.DOP)
	}
	for i, r := range data {
		t := i % e.DOP
		out[t] = append(out[t], r)
	}
	return out
}

// groupCursor yields key groups in ascending key order; next returns nil at
// end of stream. It is the unit the local strategies consume, letting an
// in-memory side and a spilled side pair up transparently.
type groupCursor interface {
	next() ([]record.Record, error)
}

// memGroupCursor iterates pre-built groups (a keyIndex's layout).
type memGroupCursor struct {
	groups [][]record.Record
	pos    int
}

func (c *memGroupCursor) next() ([]record.Record, error) {
	if c.pos >= len(c.groups) {
		return nil, nil
	}
	g := c.groups[c.pos]
	c.pos++
	return g, nil
}

// sortedGroupCursor yields equal-key groups from an already key-sorted
// slice without re-bucketing.
type sortedGroupCursor struct {
	recs []record.Record
	keys []int
	pos  int
}

func (c *sortedGroupCursor) next() ([]record.Record, error) {
	if c.pos >= len(c.recs) {
		return nil, nil
	}
	start := c.pos
	for c.pos < len(c.recs) && c.recs[start].CompareOn(c.recs[c.pos], c.keys) == 0 {
		c.pos++
	}
	return c.recs[start:c.pos], nil
}

// mergeGroupCursor accumulates equal-key groups from a sorted record merge.
type mergeGroupCursor struct {
	m       *spill.Merger
	keys    []int
	peek    record.Record
	hasPeek bool
	done    bool
}

func (c *mergeGroupCursor) next() ([]record.Record, error) {
	if c.done {
		return nil, nil
	}
	if !c.hasPeek {
		rec, ok, err := c.m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.done = true
			return nil, nil
		}
		c.peek = rec
		c.hasPeek = true
	}
	group := []record.Record{c.peek}
	c.hasPeek = false
	for {
		rec, ok, err := c.m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.done = true
			return group, nil
		}
		if group[0].CompareOn(rec, c.keys) != 0 {
			c.peek = rec
			c.hasPeek = true
			return group, nil
		}
		group = append(group, rec)
	}
}

// sideGroups builds the group stream of partition i of one input side from
// its resident records and its spilled runs. A side that spilled runs is
// the k-way merge of the runs and the sorted resident remainder: cursor
// order — oldest run first, remainder last — together with the merger's
// index tie-break reproduces arrival order within each key group, matching
// what a fully resident stable grouping would have seen. With no runs the
// merge degenerates to the resident records alone, stably sorted in place
// or — when the plan asks for a hash strategy — hash-grouped.
//
// The in-place sort relies on the engine's partition-ownership rule: every
// plan-node execution materializes fresh output partitions for its single
// consumer (exec re-executes shared subplans, scatter copies source
// headers, and broadcast hands every partition its own slice), so no
// defensive copy is needed. If subplan results are ever cached and shared
// across consumers, forwarded inputs must be copied here again.
func (e *Engine) sideGroups(ed *edge, i int, hashed bool) (groupCursor, error) {
	part, keys := ed.data[i], ed.keys
	spilled := ed.spilled(i)
	if hashed && !spilled {
		return &memGroupCursor{groups: hashGroups(part, keys)}, nil
	}
	e.sortRecs(part, keys)
	if !spilled {
		return &sortedGroupCursor{recs: part, keys: keys}, nil
	}
	sp := ed.spills[i]
	cursors := make([]spill.Cursor, 0, len(sp.runs)+1)
	for _, run := range sp.runs {
		cursors = append(cursors, sp.file.OpenRun(run))
	}
	cursors = append(cursors, spill.NewSliceCursor(part))
	m, err := spill.NewMerger(cursors, func(a, b record.Record) int { return a.CompareOn(b, keys) })
	if err != nil {
		return nil, err
	}
	return &mergeGroupCursor{m: m, keys: keys}, nil
}

// spilled reports whether partition i of the edge overflowed to sorted runs.
func (ed *edge) spilled(i int) bool {
	return ed.spills != nil && len(ed.spills[i].runs) > 0
}

// hashGroups groups a partition by key fields through a keyIndex and lays
// the groups out in canonical order.
func hashGroups(part []record.Record, keys []int) [][]record.Record {
	x := newKeyIndex(part, keys)
	order := make([]int32, len(x.head))
	for g := range order {
		order[g] = int32(g)
	}
	x.sortGroups(order)
	return layout(part, x.ids, x.size, order)
}

// hashJoin runs partition i of a hash join whose sides are both resident:
// it indexes the build side, streams the probe side through the index, and
// hands the build groups that matched — in key order, each beside its
// matched probe records in arrival order — to matchAligned. Probe records
// that match nothing are neither laid out nor sorted.
func (e *Engine) hashJoin(ctx context.Context, op *dataflow.Operator, in []edge, build, i int, emit func(record.Record) error) (int, error) {
	x := newKeyIndex(in[build].data[i], in[build].keys)
	recs, keys := in[1-build].data[i], in[1-build].keys
	ids := make([]int32, len(recs))
	sizes := make([]int32, len(x.head))
	matched := make([]int32, 0, len(x.head))
	for j, r := range recs {
		g, _ := x.find(r.Hash(keys), r, keys)
		ids[j] = g
		if g < 0 {
			continue
		}
		if sizes[g] == 0 {
			matched = append(matched, g)
		}
		sizes[g]++
	}
	x.sortGroups(matched)
	var sides [2]groupCursor
	sides[build] = &memGroupCursor{groups: layout(x.recs, x.ids, x.size, matched)}
	sides[1-build] = &memGroupCursor{groups: layout(recs, ids, sizes, matched)}
	return e.matchAligned(ctx, op, sides[0], sides[1], emit)
}

// keyIndex groups one side of a partition by its key fields: an
// open-addressing table of group ids over Record.Hash, a hit confirmed by
// comparing keys with the group's first record, and per-group and
// per-record int32 arrays sized once — its allocations do not grow with
// records or groups. Group ids number the groups in order of first arrival.
type keyIndex struct {
	recs  []record.Record
	keys  []int
	slots []int32  // group id + 1 per table slot; 0 is empty
	shift uint     // 64 - log2(len(slots))
	hash  []uint64 // per group: its key hash
	head  []int32  // per group: its first record
	size  []int32  // per group: its record count
	ids   []int32  // per record: its group
}

func newKeyIndex(recs []record.Record, keys []int) *keyIndex {
	n := len(recs)
	lg := bits.Len(uint(2 * n)) // a table over twice n slots keeps probes short
	x := &keyIndex{
		recs: recs, keys: keys,
		slots: make([]int32, 1<<lg), shift: uint(64 - lg),
		hash: make([]uint64, 0, n), head: make([]int32, 0, n), size: make([]int32, 0, n),
		ids: make([]int32, n),
	}
	for i, r := range recs {
		h := r.Hash(keys)
		g, s := x.find(h, r, keys)
		if g < 0 {
			g = int32(len(x.head))
			x.slots[s] = g + 1
			x.hash = append(x.hash, h)
			x.head = append(x.head, int32(i))
			x.size = append(x.size, 0)
		}
		x.ids[i] = g
		x.size[g]++
	}
	return x
}

// start is h's home slot. Fibonacci hashing takes the top bits of a
// product: within one partition Record.Hash is fixed modulo the DOP, so its
// low bits are not spread.
func (x *keyIndex) start(h uint64) int {
	return int(h * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the group whose key equals r's fields rKeys, or -1 and the
// empty slot that ends h's probe sequence. Equal keys hash equally
// (record.Value.Compare is exact), so only that sequence can hold the group.
func (x *keyIndex) find(h uint64, r record.Record, rKeys []int) (int32, int) {
	s := x.start(h)
	for ; x.slots[s] != 0; s = (s + 1) & (len(x.slots) - 1) {
		g := x.slots[s] - 1
		if x.hash[g] == h && compareKeyPair(x.recs[x.head[g]], x.keys, r, rKeys) == 0 {
			return g, s
		}
	}
	return -1, s
}

// sortGroups orders group ids by key. Distinct groups never tie —
// record.Value.Compare is 0 exactly where keys are Equal — so this is the
// order a stable sort of the groups in arrival order gives.
func (x *keyIndex) sortGroups(gs []int32) {
	slices.SortFunc(gs, func(a, b int32) int {
		return x.recs[x.head[a]].CompareOn(x.recs[x.head[b]], x.keys)
	})
}

// layout copies the records of the groups in order into one flat slice,
// group after group, each in arrival order, and returns one sub-slice per
// group. Record j belongs to group ids[j] (none if negative), sizes counts
// each group's records, and records of groups not in order are dropped.
func layout(recs []record.Record, ids, sizes, order []int32) [][]record.Record {
	next := make([]int32, len(sizes)) // per group in order: 1 + its next flat position
	total := int32(0)
	for _, g := range order {
		next[g] = total + 1
		total += sizes[g]
	}
	flat := make([]record.Record, total)
	for j, r := range recs {
		if g := ids[j]; g >= 0 && next[g] > 0 {
			flat[next[g]-1] = r
			next[g]++
		}
	}
	out := make([][]record.Record, len(order))
	for k, g := range order {
		out[k], flat = flat[:sizes[g]], flat[sizes[g]:]
	}
	return out
}

// reduceGroups applies the Reduce UDF once per key group of the stream.
func (e *Engine) reduceGroups(ctx context.Context, op *dataflow.Operator, groups groupCursor, emit func(record.Record) error) (int, error) {
	udf, err := e.runner(op, tac.KindReduce)
	if err != nil {
		return 0, err
	}
	calls := 0
	var tick ticker
	for {
		if tick.due() && context.Cause(ctx) != nil {
			return 0, context.Cause(ctx)
		}
		g, err := groups.next()
		if err != nil {
			return 0, err
		}
		if g == nil {
			return calls, nil
		}
		if err := udfError(op, udf.Reduce(tac.Records(g), emit)); err != nil {
			return 0, err
		}
		calls++
	}
}

// compareKeyPair orders a left-side record against a right-side record by
// their respective key fields, position by position.
func compareKeyPair(l record.Record, lKeys []int, r record.Record, rKeys []int) int {
	for i := range lKeys {
		if c := l.Field(lKeys[i]).Compare(r.Field(rKeys[i])); c != 0 {
			return c
		}
	}
	return 0
}

// coGroupAligned merges two sorted group streams and calls the CoGroup UDF
// once per key in the combined key domain, ascending.
func (e *Engine) coGroupAligned(ctx context.Context, op *dataflow.Operator, l, r groupCursor, emit func(record.Record) error) (int, error) {
	udf, err := e.runner(op, tac.KindCoGroup)
	if err != nil {
		return 0, err
	}
	calls := 0
	lg, err := l.next()
	if err != nil {
		return 0, err
	}
	rg, err := r.next()
	if err != nil {
		return 0, err
	}
	var tick ticker
	for lg != nil || rg != nil {
		if tick.due() && context.Cause(ctx) != nil {
			return 0, context.Cause(ctx)
		}
		// The side whose next key is the smaller goes alone; equal keys go
		// together.
		c := 0
		switch {
		case rg == nil:
			c = -1
		case lg == nil:
			c = 1
		default:
			c = compareKeyPair(lg[0], op.Keys[0], rg[0], op.Keys[1])
		}
		var lside, rside []record.Record
		if c <= 0 {
			lside = lg
		}
		if c >= 0 {
			rside = rg
		}
		if err := udfError(op, udf.CoGroup(tac.Records(lside), tac.Records(rside), emit)); err != nil {
			return 0, err
		}
		calls++
		if c <= 0 {
			if lg, err = l.next(); err != nil {
				return 0, err
			}
		}
		if c >= 0 {
			if rg, err = r.next(); err != nil {
				return 0, err
			}
		}
	}
	return calls, nil
}

// matchAligned merges two sorted group streams and emits the cross product
// of every equal-key group pair in canonical join order — ascending key,
// left records major and in arrival order, right records minor and in
// arrival order. Keys present on only one side are skipped without a UDF
// call, which is what separates a Match from the CoGroup alignment. Key
// equality is record.Value.Compare-based, the same semantics grouping has.
func (e *Engine) matchAligned(ctx context.Context, op *dataflow.Operator, l, r groupCursor, emit func(record.Record) error) (int, error) {
	udf, err := e.runner(op, tac.KindBinary)
	if err != nil {
		return 0, err
	}
	calls := 0
	lg, err := l.next()
	if err != nil {
		return 0, err
	}
	rg, err := r.next()
	if err != nil {
		return 0, err
	}
	var tick ticker
	for lg != nil && rg != nil {
		if tick.due() && context.Cause(ctx) != nil {
			return 0, context.Cause(ctx)
		}
		switch c := compareKeyPair(lg[0], op.Keys[0], rg[0], op.Keys[1]); {
		case c < 0:
			if lg, err = l.next(); err != nil {
				return 0, err
			}
		case c > 0:
			if rg, err = r.next(); err != nil {
				return 0, err
			}
		default:
			for _, lr := range lg {
				for _, rr := range rg {
					if tick.due() && context.Cause(ctx) != nil {
						return 0, context.Cause(ctx)
					}
					if err := udfError(op, udf.Binary(lr, rr, emit)); err != nil {
						return 0, err
					}
					calls++
				}
			}
			if lg, err = l.next(); err != nil {
				return 0, err
			}
			if rg, err = r.next(); err != nil {
				return 0, err
			}
		}
	}
	return calls, nil
}
