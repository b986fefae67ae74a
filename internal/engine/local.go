package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/spill"
	"blackboxflow/internal/tac"
)

// This file is the local stage of the pipeline. Each operator kind has one
// local strategy, and grouping and join operators read every input side as
// a stream of key groups in ascending key order with records in arrival
// order inside a group — the engine's canonical order. sideGroups builds
// that stream: a resident side through the key index, a spilled one as one
// group merge (spill.Groups) of its runs and its resident remainder, each
// laid out by the key index (grouper.ordered), the engine's one way to
// order records. A Match whose sides are both resident hash-joins them
// instead, in the same order. Because both paths emit that order, a plan
// produces byte-identical output whether zero, some, or all partitions
// overflowed the memory budget. See DESIGN.md ("Memory model & spilling").

// local runs the operator's local strategy on every partition in parallel,
// the records its UDF builds reserving room fields.
func (e *Engine) local(ctx context.Context, p *optimizer.PhysPlan, in []edge, room int) (Partitioned, int, error) {
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
		out, err := e.runChain(ctx, in[0].data, []*optimizer.PhysPlan{p}, room, counts)
		return out, counts[0].calls, err

	case dataflow.KindReduce:
		return fanOut(len(in[0].data), e.outSize(p, edgeRecords(in)), func(i int, emit func(record.Record) error) (int, error) {
			udf, err := e.runner(op, tac.KindReduce, room)
			if err != nil {
				return 0, err
			}
			sc := getScratch()
			defer sc.put()
			return reduceGroups(ctx, op, udf, sideGroups(&in[0], i, &sc[0]), emit)
		})

	case dataflow.KindMatch, dataflow.KindCoGroup:
		// A Match over two resident sides indexes its BuildSide and probes
		// it with the other side; where either side spilled, and always for
		// a CoGroup, both sides are read as group streams and aligned.
		kind := tac.KindCoGroup
		if op.Kind == dataflow.KindMatch {
			kind = tac.KindBinary
		}
		return fanOut(len(in[0].data), e.outSize(p, edgeRecords(in)), func(i int, emit func(record.Record) error) (int, error) {
			udf, err := e.runner(op, kind, room)
			if err != nil {
				return 0, err
			}
			sc := getScratch()
			defer sc.put()
			if kind == tac.KindBinary && !in[0].spilled(i) && !in[1].spilled(i) {
				return hashJoin(ctx, op, udf, in, p.BuildSide, i, sc, emit)
			}
			l, r := sideGroups(&in[0], i, &sc[0]), sideGroups(&in[1], i, &sc[1])
			if kind == tac.KindCoGroup {
				return coGroupAligned(ctx, op, udf, l, r, emit)
			}
			return matchAligned(ctx, op, udf, l, r, handover(in), emit)
		})

	case dataflow.KindCross:
		return fanOut(len(in[0].data), e.outSize(p, edgeRecords(in)), func(i int, emit func(record.Record) error) (int, error) {
			udf, err := e.runner(op, tac.KindBinary, room)
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
					if err := udfError(op, udf.Binary(lr, rr, 0, emit)); err != nil {
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

// groupCursor yields key groups in ascending key order; Next returns nil at
// end of stream. It is the unit the local strategies consume, letting an
// in-memory side (memGroupCursor) and a spilled side (*spill.Groups) pair up
// transparently.
type groupCursor interface {
	Next() ([]record.Record, error)
}

// memGroupCursor iterates pre-built groups (a keyIndex's layout).
type memGroupCursor struct {
	groups [][]record.Record
	pos    int
}

func (c *memGroupCursor) Next() ([]record.Record, error) {
	if c.pos >= len(c.groups) {
		return nil, nil
	}
	g := c.groups[c.pos]
	c.pos++
	return g, nil
}

// sideGroups builds the group stream of partition i of one input side,
// through g, whose arrays back the groups until g is next used. A resident
// side is grouped by the key index. A side that spilled runs is one group
// merge (spill.Groups) of the runs, oldest first, and its resident
// remainder, which g lays out in key order, last: that cursor order keeps
// arrival order within each key group, the order the key index gives a
// resident side.
func sideGroups(ed *edge, i int, g *grouper) groupCursor {
	part, keys := ed.data[i], ed.keys
	if !ed.spilled(i) {
		return &memGroupCursor{groups: g.groups(part, keys)}
	}
	sp := ed.spills[i]
	cursors := make([]spill.Cursor, 0, len(sp.runs)+1)
	for _, run := range sp.runs {
		cursors = append(cursors, sp.file.OpenRun(run))
	}
	return spill.NewGroups(append(cursors, spill.NewSliceCursor(g.ordered(part, keys))), keys)
}

// spilled reports whether partition i of the edge overflowed to sorted runs.
func (ed *edge) spilled(i int) bool {
	return ed.spills != nil && len(ed.spills[i].runs) > 0
}

// edgeRecords counts partition i's records over every input edge, spilled
// runs included.
func edgeRecords(in []edge) func(i int) int {
	return func(i int) int {
		n := 0
		for j := range in {
			n += len(in[j].data[i])
			if in[j].spills != nil {
				for _, run := range in[j].spills[i].runs {
					n += run.Records
				}
			}
		}
		return n
	}
}

// grouper groups one side of a partition by key fields through a keyIndex
// and lays the records out group after group, in canonical order — groups
// by ascending key, records in arrival order within a group — (groups, and
// ordered for a spill run or a spilled side's remainder) or with the groups
// in order of first arrival (arrivalGroups). Its arrays are reset, not
// rebuilt, so a caller that groups batch after batch — the combining
// sender, the spilling collector — allocates only when a batch outgrows the
// last. What it returns lives until the next call or release.
type grouper struct {
	x     keyIndex
	order []int32
	lay   layoutBuf
}

func (g *grouper) groups(part []record.Record, keys []int) [][]record.Record {
	g.index(part, keys)
	g.x.sortGroups(g.order)
	return g.lay.layout(part, g.x.ids, g.x.size, g.order)
}

// ordered is groups' layout as one flat slice.
func (g *grouper) ordered(part []record.Record, keys []int) []record.Record {
	g.index(part, keys)
	g.x.sortGroups(g.order)
	return g.lay.place(part, g.x.ids, g.x.size, g.order)
}

func (g *grouper) arrivalGroups(part []record.Record, keys []int) [][]record.Record {
	g.index(part, keys)
	return g.lay.layout(part, g.x.ids, g.x.size, g.order)
}

// index indexes part by keys and sets order to the group ids in order of
// first arrival.
func (g *grouper) index(part []record.Record, keys []int) {
	g.x.index(part, keys)
	g.order = sized(g.order, len(g.x.hash))
	for i := range g.order {
		g.order[i] = int32(i)
	}
}

// release clears every slot of g that can point into records — the dense
// keys, the laid-out records and the group slices — keeping the arrays.
// Each use writes only below the lengths it leaves, so clearing up to them
// clears everything.
func (g *grouper) release() {
	clear(g.x.kv)
	clear(g.lay.flat)
	clear(g.lay.out)
}

// scratch is what one partition's local stage groups with: a grouper per
// input side. It comes from scratchPool and goes back released, so the
// arrays are sized once across the jobs of a process and a pooled grouper
// pins no record.
type scratch [2]grouper

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (sc *scratch) put() {
	for i := range sc {
		sc[i].release()
	}
	scratchPool.Put(sc)
}

// hashJoin runs partition i of a hash join whose sides are both resident:
// it indexes the build side, streams the probe side through the index, and
// hands the build groups that matched — in key order, each beside its
// matched probe records in arrival order — to matchAligned. Probe records
// that match nothing are neither laid out nor sorted. sc[0] groups the
// build side; sc[1] holds the probe side's group ids and sizes, in the
// build side's numbering, and its layout.
func hashJoin(ctx context.Context, op *dataflow.Operator, udf *tac.Runner, in []edge, build, i int, sc *scratch, emit func(record.Record) error) (int, error) {
	b, p := &sc[0], &sc[1]
	bRecs := in[build].data[i]
	b.x.index(bRecs, in[build].keys)
	recs, keys := in[1-build].data[i], in[1-build].keys
	p.x.ids = sized(p.x.ids, len(recs))
	p.x.size = sized(p.x.size, len(b.x.hash))
	b.order = slices.Grow(b.order[:0], len(b.x.hash))
	for j, r := range recs {
		g, _ := b.x.find(keyHash(r, keys), r, keys)
		p.x.ids[j] = g
		if g < 0 {
			continue
		}
		if p.x.size[g] == 0 {
			b.order = append(b.order, g)
		}
		p.x.size[g]++
	}
	b.x.sortGroups(b.order)
	var sides [2]groupCursor
	sides[build] = &memGroupCursor{groups: b.lay.layout(bRecs, b.x.ids, b.x.size, b.order)}
	sides[1-build] = &memGroupCursor{groups: p.lay.layout(recs, p.x.ids, p.x.size, b.order)}
	return matchAligned(ctx, op, udf, sides[0], sides[1], handover(in), emit)
}

// keyIndex groups one side of a partition by its key fields: an
// open-addressing table of group ids over keyHash, a hit confirmed by
// record.Value.Equal on the group's key fields, which it holds densely —
// len(keys) Values per group, beside the group's hash — so neither a probe
// nor the key sort chases a record. Groups are ordered by
// record.Value.Compare, the order every other path of the engine uses. Its
// per-group and per-record arrays are sized once, for as many groups as
// records: its allocations do not grow with records or groups, and
// re-indexing reuses them. Group ids number the groups in order of first
// arrival.
type keyIndex struct {
	keys  []int
	slots []int32        // group id + 1 per table slot; 0 is empty
	shift uint           // 64 - log2(len(slots))
	hash  []uint64       // per group: its key hash
	kv    []record.Value // per group: its key fields, len(keys) of them
	size  []int32        // per group: its record count
	ids   []int32        // per record: its group
}

// index groups recs by keys, replacing what x indexed before.
func (x *keyIndex) index(recs []record.Record, keys []int) {
	n := len(recs)
	lg := bits.Len(uint(2 * n)) // a table over twice n slots keeps probes short
	x.keys = keys
	x.slots, x.shift = sized(x.slots, 1<<lg), uint(64-lg)
	x.hash, x.size = slices.Grow(x.hash[:0], n), slices.Grow(x.size[:0], n)
	x.kv = slices.Grow(x.kv[:0], n*len(keys))
	x.ids = sized(x.ids, n)
	for i, r := range recs {
		h := keyHash(r, keys)
		g, s := x.find(h, r, keys)
		if g < 0 {
			g = int32(len(x.hash))
			x.slots[s] = g + 1
			x.hash = append(x.hash, h)
			for _, f := range keys {
				x.kv = append(x.kv, r.Field(f))
			}
			x.size = append(x.size, 0)
		}
		x.ids[i] = g
		x.size[g]++
	}
}

// indexSeed seeds keyHash's string hash.
var indexSeed = maphash.MakeSeed()

// keyHash is the key index's hash of r's fields keys. Only the index uses
// it — shuffle routing keeps record.Record.Hash, so no record changes
// partition — and it need only hash Equal keys equally: ints and integral
// floats by a multiply–xorshift of the int, strings by hash/maphash, and
// every other value by record.Value.Hash, which no int or string equals.
func keyHash(r record.Record, keys []int) uint64 {
	var h uint64
	for _, f := range keys {
		h = h*0x9e3779b97f4a7c15 ^ valueHash(r.Field(f))
	}
	return h
}

// valueHash is keyHash's hash of one field.
func valueHash(v record.Value) uint64 {
	var i int64
	switch v.Kind() {
	case record.KindInt:
		i = v.AsInt()
	case record.KindString:
		return maphash.String(indexSeed, v.AsString())
	case record.KindFloat:
		f := v.AsFloat()
		if f != math.Trunc(f) || math.IsInf(f, 0) {
			return v.Hash() // NaN included
		}
		i = int64(f)
	default:
		return v.Hash()
	}
	u := uint64(i)
	u = (u ^ u>>33) * 0xff51afd7ed558ccd
	return u ^ u>>33
}

// sized returns s resized to n zeros, in its own array when that is large
// enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// start is h's home slot: the top bits of a Fibonacci-hashing product.
func (x *keyIndex) start(h uint64) int {
	return int(h * 0x9e3779b97f4a7c15 >> x.shift)
}

// key returns group g's key fields.
func (x *keyIndex) key(g int32) []record.Value {
	k := len(x.keys)
	return x.kv[int(g)*k : int(g+1)*k]
}

// find returns the group whose key equals r's fields rKeys, or -1 and the
// empty slot that ends h's probe sequence. Equal keys hash equally, so only
// that sequence can hold the group.
func (x *keyIndex) find(h uint64, r record.Record, rKeys []int) (int32, int) {
	s := x.start(h)
	for ; x.slots[s] != 0; s = (s + 1) & (len(x.slots) - 1) {
		g := x.slots[s] - 1
		if x.hash[g] == h && keyEquals(x.key(g), r, rKeys) {
			return g, s
		}
	}
	return -1, s
}

// keyEquals reports whether r's fields rKeys equal key, position by
// position.
func keyEquals(key []record.Value, r record.Record, rKeys []int) bool {
	for i, v := range key {
		if !v.Equal(r.Field(rKeys[i])) {
			return false
		}
	}
	return true
}

// sortGroups orders group ids by key. Distinct groups never tie — Compare
// is 0 exactly where keys are Equal — so this is the order a stable sort of
// the groups, or of their records, in arrival order gives.
func (x *keyIndex) sortGroups(gs []int32) {
	slices.SortFunc(gs, func(a, b int32) int {
		kb := x.key(b)
		for i, v := range x.key(a) {
			if c := v.Compare(kb[i]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// layoutBuf holds layout's arrays; its next layout reuses them.
type layoutBuf struct {
	next []int32 // per group in order: 1 + its next flat position
	flat []record.Record
	out  [][]record.Record
}

// place copies the records of the groups in order into one flat slice,
// group after group, each in arrival order, and returns it. Record j
// belongs to group ids[j] (none if negative), sizes counts each group's
// records, and records of groups not in order are dropped.
func (b *layoutBuf) place(recs []record.Record, ids, sizes, order []int32) []record.Record {
	b.next = sized(b.next, len(sizes))
	total := int32(0)
	for _, g := range order {
		b.next[g] = total + 1
		total += sizes[g]
	}
	b.flat = sized(b.flat, int(total))
	for j, r := range recs {
		if g := ids[j]; g >= 0 && b.next[g] > 0 {
			b.flat[b.next[g]-1] = r
			b.next[g]++
		}
	}
	return b.flat
}

// layout is place's slice cut into one sub-slice per group.
func (b *layoutBuf) layout(recs []record.Record, ids, sizes, order []int32) [][]record.Record {
	flat := b.place(recs, ids, sizes, order)
	b.out = sized(b.out, len(order))
	for k, g := range order {
		b.out[k], flat = flat[:sizes[g]], flat[sizes[g]:]
	}
	return b.out
}

// reduceGroups applies the Reduce UDF once per key group of the stream.
func reduceGroups(ctx context.Context, op *dataflow.Operator, udf *tac.Runner, groups groupCursor, emit func(record.Record) error) (int, error) {
	calls := 0
	var tick ticker
	for {
		if tick.due() && context.Cause(ctx) != nil {
			return 0, context.Cause(ctx)
		}
		g, err := groups.Next()
		if err != nil {
			return 0, err
		}
		if g == nil {
			return calls, nil
		}
		if err := udfError(op, udf.Reduce(g, emit)); err != nil {
			return 0, err
		}
		calls++
	}
}

// handover names the owned sides of a binary operator's inputs.
func handover(in []edge) tac.Owned {
	var own tac.Owned
	if in[0].owned {
		own |= tac.OwnLeft
	}
	if in[1].owned {
		own |= tac.OwnRight
	}
	return own
}

// keepsInput reports whether the output of op's local stage may hold the
// storage of its input i, so that the slabs of the frames that input was
// decoded from must outlive the stage: the sink returns its input, and a
// Match hands the records of the sides handover names to its UDF, which may
// emit them or build its result in them. Every other operator emits copies
// (tac.Runner), and copies share only string bytes, which live in a frame's
// arena, not its slab.
func keepsInput(op *dataflow.Operator, in []edge, i int) bool {
	switch op.Kind {
	case dataflow.KindSink:
		return true
	case dataflow.KindMatch:
		return handover(in)&(tac.OwnLeft<<i) != 0 // OwnRight is OwnLeft<<1
	}
	return false
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
func coGroupAligned(ctx context.Context, op *dataflow.Operator, udf *tac.Runner, l, r groupCursor, emit func(record.Record) error) (int, error) {
	calls := 0
	lg, err := l.Next()
	if err != nil {
		return 0, err
	}
	rg, err := r.Next()
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
		if err := udfError(op, udf.CoGroup(lside, rside, emit)); err != nil {
			return 0, err
		}
		calls++
		if c <= 0 {
			if lg, err = l.Next(); err != nil {
				return 0, err
			}
		}
		if c >= 0 {
			if rg, err = r.Next(); err != nil {
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
//
// A side own names is owned (see edge): each of its records is handed to
// the UDF at its last use — a left record on its pairing with the group's
// last right record, a right record on its pairing with the last left one —
// after which nothing reads it: the group streams move on, and the
// partition's records are the operator's alone.
func matchAligned(ctx context.Context, op *dataflow.Operator, udf *tac.Runner, l, r groupCursor, own tac.Owned, emit func(record.Record) error) (int, error) {
	calls := 0
	lg, err := l.Next()
	if err != nil {
		return 0, err
	}
	rg, err := r.Next()
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
			if lg, err = l.Next(); err != nil {
				return 0, err
			}
		case c > 0:
			if rg, err = r.Next(); err != nil {
				return 0, err
			}
		default:
			for li, lr := range lg {
				for ri, rr := range rg {
					if tick.due() && context.Cause(ctx) != nil {
						return 0, context.Cause(ctx)
					}
					last := own
					if ri < len(rg)-1 {
						last &^= tac.OwnLeft
					}
					if li < len(lg)-1 {
						last &^= tac.OwnRight
					}
					if err := udfError(op, udf.Binary(lr, rr, last, emit)); err != nil {
						return 0, err
					}
					calls++
				}
			}
			if lg, err = l.Next(); err != nil {
				return 0, err
			}
			if rg, err = r.Next(); err != nil {
				return 0, err
			}
		}
	}
	return calls, nil
}
