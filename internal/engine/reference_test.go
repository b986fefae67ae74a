package engine

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file is the reference executor: a frozen copy of the engine as it
// ran before the operator pipeline — the generic post-order exec, the
// in-memory local strategies and the record-at-a-time shuffle — reduced to
// what decides the answer. It is fully resident (no budget, no spilling),
// stage-at-a-time (every Map materialises its output, no fusion), never
// combines, ships over plain channels and records no spans. Every
// differential test compares the pipeline's output bytes and exact counters
// against it. It shares no execution code with production: its grouping
// (one stable sort, refGroupRecords), alignment and fan-out are its own
// copies, so a bug in the pipeline cannot hide in both sides of a
// comparison. Do not "simplify" it onto production helpers. The one thing
// it has in common with the pipeline is the UDF entry point: it calls user
// code through tac.Runner (refUDF), materialising what each call emits.

// mustRefRun executes plan on the reference executor with e's DOP, sources
// and UDF interpreter, ignoring every other engine setting.
func mustRefRun(t *testing.T, e *Engine, plan *optimizer.PhysPlan, label string) (record.DataSet, *RunStats) {
	t.Helper()
	stats := &RunStats{}
	out, err := e.refExec(plan, stats)
	if err != nil {
		t.Fatalf("%s (reference executor): %v", label, err)
	}
	return out.Flatten(), stats
}

func (e *Engine) refExec(p *optimizer.PhysPlan, stats *RunStats) (Partitioned, error) {
	inputs := make([]Partitioned, len(p.Inputs))
	for i, in := range p.Inputs {
		d, err := e.refExec(in, stats)
		if err != nil {
			return nil, err
		}
		inputs[i] = d
	}
	op := p.Op
	st := OpStats{Name: op.Name}
	for _, in := range inputs {
		st.InRecords += in.Records()
	}
	for i := range inputs {
		if i >= len(p.Ship) {
			break
		}
		var keys []int
		if i < len(op.Keys) {
			keys = op.Keys[i]
		}
		switch p.Ship[i] {
		case optimizer.ShipPartition:
			shipped, bytes := e.shuffleRecordAtATime(inputs[i], keys)
			inputs[i] = shipped
			st.ShippedBytes += bytes
		case optimizer.ShipBroadcast:
			full := inputs[i].Flatten()
			copies := make(Partitioned, e.DOP)
			for c := range copies {
				copies[c] = append([]record.Record(nil), full...)
				st.ShippedBytes += full.TotalSize()
			}
			inputs[i] = copies
		}
	}
	out, calls, err := e.refLocal(p, inputs)
	if err != nil {
		return nil, err
	}
	st.UDFCalls = calls
	st.OutRecords = out.Records()
	stats.PerOp = append(stats.PerOp, st)
	return out, nil
}

// shuffleRecordAtATime is the pre-batching shuffle: one channel send per
// record. It is retained verbatim as the reference executor's shuffle and
// as the regression baseline that TestShuffleAllocRegression and
// BenchmarkShuffle compare the batched path against.
func (e *Engine) shuffleRecordAtATime(in Partitioned, keys []int) (Partitioned, int) {
	dop := e.DOP
	chans := make([]chan record.Record, dop)
	for i := range chans {
		chans[i] = make(chan record.Record, 256)
	}
	var senders sync.WaitGroup
	var bytes int64
	var bytesMu sync.Mutex
	for _, part := range in {
		part := part
		senders.Add(1)
		go func() {
			defer senders.Done()
			local := 0
			for _, r := range part {
				t := int(r.Hash(keys) % uint64(dop))
				local += r.EncodedSize()
				chans[t] <- r
			}
			bytesMu.Lock()
			bytes += int64(local)
			bytesMu.Unlock()
		}()
	}
	go func() {
		senders.Wait()
		for _, c := range chans {
			close(c)
		}
	}()
	out := make(Partitioned, dop)
	var collectors sync.WaitGroup
	for i := range chans {
		i := i
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			for r := range chans[i] {
				out[i] = append(out[i], r)
			}
		}()
	}
	collectors.Wait()
	return out, int(bytes)
}

// refUDF is one goroutine's handle on op's UDF: a Runner and the slice its
// calls' output is appended to.
type refUDF struct {
	*tac.Runner
	op  *dataflow.Operator
	out []record.Record
}

func (e *Engine) refUDF(op *dataflow.Operator, kind tac.Kind) (*refUDF, error) {
	r, err := tac.NewRunner(op.UDF, kind)
	if err != nil {
		return nil, fmt.Errorf("reference: %s: %w", op.Name, err)
	}
	return &refUDF{Runner: r, op: op}, nil
}

func (u *refUDF) emit(r record.Record) error {
	u.out = append(u.out, r)
	return nil
}

// done wraps a call's error with the operator's name.
func (u *refUDF) done(err error) error {
	if err != nil {
		return fmt.Errorf("reference: %s: %w", u.op.Name, err)
	}
	return nil
}

// refLocal runs the operator's in-memory local strategy on every partition
// in parallel.
func (e *Engine) refLocal(p *optimizer.PhysPlan, inputs []Partitioned) (Partitioned, int, error) {
	op := p.Op
	switch op.Kind {
	case dataflow.KindSource:
		data, ok := e.Sources[op.Name]
		if !ok {
			return nil, 0, fmt.Errorf("reference: no data registered for source %q", op.Name)
		}
		out := make(Partitioned, e.DOP)
		for i, r := range data {
			out[i%e.DOP] = append(out[i%e.DOP], r)
		}
		return out, 0, nil

	case dataflow.KindSink:
		return inputs[0], 0, nil

	case dataflow.KindMap:
		return refPerPartition2(inputs[0], nil, func(part, _ []record.Record) ([]record.Record, int, error) {
			udf, err := e.refUDF(op, tac.KindMap)
			if err != nil {
				return nil, 0, err
			}
			calls := 0
			for _, r := range part {
				if err := udf.done(udf.Map(r, udf.emit)); err != nil {
					return nil, 0, err
				}
				calls++
			}
			return udf.out, calls, nil
		})

	case dataflow.KindReduce:
		keys := op.Keys[0]
		return refPerPartition2(inputs[0], nil, func(part, _ []record.Record) ([]record.Record, int, error) {
			udf, err := e.refUDF(op, tac.KindReduce)
			if err != nil {
				return nil, 0, err
			}
			calls := 0
			for _, g := range refGroupRecords(part, keys) {
				if err := udf.done(udf.Reduce(g, udf.emit)); err != nil {
					return nil, 0, err
				}
				calls++
			}
			return udf.out, calls, nil
		})

	case dataflow.KindMatch:
		lKeys, rKeys := op.Keys[0], op.Keys[1]
		return refPerPartition2(inputs[0], inputs[1], func(l, r []record.Record) ([]record.Record, int, error) {
			return e.refMatchAligned(op, refGroupRecords(l, lKeys), refGroupRecords(r, rKeys))
		})

	case dataflow.KindCross:
		return refPerPartition2(inputs[0], inputs[1], func(l, r []record.Record) ([]record.Record, int, error) {
			udf, err := e.refUDF(op, tac.KindBinary)
			if err != nil {
				return nil, 0, err
			}
			calls := 0
			for _, lr := range l {
				for _, rr := range r {
					if err := udf.done(udf.Binary(lr, rr, 0, udf.emit)); err != nil {
						return nil, 0, err
					}
					calls++
				}
			}
			return udf.out, calls, nil
		})

	case dataflow.KindCoGroup:
		lKeys, rKeys := op.Keys[0], op.Keys[1]
		return refPerPartition2(inputs[0], inputs[1], func(l, r []record.Record) ([]record.Record, int, error) {
			return e.refCoGroupAligned(op, refGroupRecords(l, lKeys), refGroupRecords(r, rKeys))
		})

	default:
		return nil, 0, fmt.Errorf("reference: cannot execute %s", op.Kind)
	}
}

// refPerPartition2 applies fn pairwise to the partitions of two inputs (r
// may be nil for unary operators).
func refPerPartition2(l, r Partitioned, fn func(l, r []record.Record) ([]record.Record, int, error)) (Partitioned, int, error) {
	n := len(l)
	if len(r) > n {
		n = len(r)
	}
	out := make(Partitioned, n)
	calls := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lp, rp []record.Record
			if i < len(l) {
				lp = l[i]
			}
			if i < len(r) {
				rp = r[i]
			}
			out[i], calls[i], errs[i] = fn(lp, rp)
		}()
	}
	wg.Wait()
	total := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		total += calls[i]
	}
	return out, total, nil
}

// refGroupRecords groups a partition by key fields with one stable sort of
// the whole partition: groups in ascending key order with records in
// arrival order within a group — the canonical group order.
func refGroupRecords(part []record.Record, keys []int) [][]record.Record {
	if len(part) == 0 {
		return nil
	}
	type keyed struct {
		key record.Record
		rec record.Record
	}
	ks := make([]keyed, len(part))
	for i, r := range part {
		ks[i] = keyed{key: r.Project(keys), rec: r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key.Compare(ks[j].key) < 0 })
	var groups [][]record.Record
	start := 0
	for i := 1; i <= len(ks); i++ {
		if i == len(ks) || ks[i].key.Compare(ks[start].key) != 0 {
			g := make([]record.Record, 0, i-start)
			for _, k := range ks[start:i] {
				g = append(g, k.rec)
			}
			groups = append(groups, g)
			start = i
		}
	}
	return groups
}

// refCompareKeyPair orders a left-side record against a right-side record
// by their respective key fields, position by position.
func refCompareKeyPair(l record.Record, lKeys []int, r record.Record, rKeys []int) int {
	for i := range lKeys {
		if c := l.Field(lKeys[i]).Compare(r.Field(rKeys[i])); c != 0 {
			return c
		}
	}
	return 0
}

// refMatchAligned emits the cross product of every equal-key group pair of
// two ascending group lists: ascending key, left records major.
func (e *Engine) refMatchAligned(op *dataflow.Operator, l, r [][]record.Record) ([]record.Record, int, error) {
	udf, err := e.refUDF(op, tac.KindBinary)
	if err != nil {
		return nil, 0, err
	}
	calls := 0
	for len(l) > 0 && len(r) > 0 {
		switch c := refCompareKeyPair(l[0][0], op.Keys[0], r[0][0], op.Keys[1]); {
		case c < 0:
			l = l[1:]
		case c > 0:
			r = r[1:]
		default:
			for _, lr := range l[0] {
				for _, rr := range r[0] {
					if err := udf.done(udf.Binary(lr, rr, 0, udf.emit)); err != nil {
						return nil, 0, err
					}
					calls++
				}
			}
			l, r = l[1:], r[1:]
		}
	}
	return udf.out, calls, nil
}

// refCoGroupAligned calls the CoGroup UDF once per key in the combined key
// domain of two ascending group lists, ascending.
func (e *Engine) refCoGroupAligned(op *dataflow.Operator, l, r [][]record.Record) ([]record.Record, int, error) {
	udf, err := e.refUDF(op, tac.KindCoGroup)
	if err != nil {
		return nil, 0, err
	}
	calls := 0
	for len(l) > 0 || len(r) > 0 {
		var lg, rg []record.Record
		c := 0
		switch {
		case len(r) == 0:
			c = -1
		case len(l) == 0:
			c = 1
		default:
			c = refCompareKeyPair(l[0][0], op.Keys[0], r[0][0], op.Keys[1])
		}
		if c <= 0 {
			lg, l = l[0], l[1:]
		}
		if c >= 0 {
			rg, r = r[0], r[1:]
		}
		if err := udf.done(udf.CoGroup(lg, rg, udf.emit)); err != nil {
			return nil, 0, err
		}
		calls++
	}
	return udf.out, calls, nil
}
