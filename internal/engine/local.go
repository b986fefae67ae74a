package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

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
		// A hash join hash-groups its resident sides (BuildSide only steers
		// the cost model); a side that spilled merges its sorted runs, as
		// the merge join and the co-group always do.
		align, hashed := e.coGroupAligned, false
		if op.Kind == dataflow.KindMatch {
			align, hashed = e.matchAligned, p.Local == optimizer.LocalHashJoin
		}
		return fanOut(len(in[0].data), func(i int, emit func(record.Record) error) (int, error) {
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

// scatter round-robins source data across partitions.
func (e *Engine) scatter(data record.DataSet) Partitioned {
	out := make(Partitioned, e.DOP)
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

// memGroupCursor iterates pre-built groups (hashGroups output).
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
	spilled := ed.spills != nil && len(ed.spills[i].runs) > 0
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

// hashGroups groups a partition by key fields via a hash map: one hash pass
// with collision safety (a bucket may hold several true key groups, told
// apart by key comparison), then a sort of the groups — not the records —
// by key, which yields the canonical order the sort-based paths produce by
// construction. Key projections are computed once per record.
func hashGroups(part []record.Record, keys []int) [][]record.Record {
	type group struct {
		key  record.Record
		recs []record.Record
	}
	var groups []group
	buckets := map[uint64][]int{}
	for _, r := range part {
		key := r.Project(keys)
		h := key.Hash(nil)
		gi := -1
		for _, idx := range buckets[h] {
			if groups[idx].key.Compare(key) == 0 {
				gi = idx
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, group{key: key})
			buckets[h] = append(buckets[h], gi)
		}
		groups[gi].recs = append(groups[gi].recs, r)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].key.Compare(groups[j].key) < 0 })
	out := make([][]record.Record, len(groups))
	for i, g := range groups {
		out[i] = g.recs
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
