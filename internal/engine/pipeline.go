package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file is the engine's one execution path. Every plan node runs
// through exec, which runs the node's producers, opens the operator's span,
// hands the stages to run and closes span and statistics whatever the
// outcome; run walks the stages — fused Maps, sender → receiver, local
// strategy — picking each stage's variant from the plan and the engine.

// opCount tallies one operator's exact record movement inside a fused loop
// (a Map chain's materialising loop, or the shuffle senders): records in,
// records out, UDF calls.
type opCount struct{ in, out, calls int }

func (c *opCount) add(o opCount) {
	c.in += o.in
	c.out += o.out
	c.calls += o.calls
}

// opError attributes a failure to an operator: the one whose UDF returned
// the error, or the one whose phase a transport or disk error broke (see
// attribute). Unwrap keeps errors.Is/As working on the cause.
type opError struct {
	op  string
	err error
}

func (e *opError) Error() string { return "engine: " + e.op + ": " + e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// attribute is the one place a failure of an operator's phase gets its
// operator's name: transport and disk errors name the operator whose
// shuffle, broadcast or local strategy they broke ("engine: <op>: shuffle:
// …", errors.Is/As still reach the cause); UDF errors already name theirs;
// and under a cancelled context whatever went wrong surfaces as the
// cancellation's cause.
func attribute(ctx context.Context, op, phase string, err error) error {
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	var named *opError
	if errors.As(err, &named) {
		return err
	}
	return &opError{op, fmt.Errorf("%s: %w", phase, err)}
}

// edge is one input of an operator as the pipeline executes it: how it
// ships, the Map chain fused onto it (the maximal run of Chained Maps
// between the pipeline breaker that produces the records and the
// operator), whether the operator owns its records, and what the stages
// did with it.
//
// An edge is owned when this run built every record on it — a UDF operator
// or the fused chain emitted it — and each record reaches exactly one
// partition: the edge is forward or partitioned. Source rows are never
// owned (the source cache shares them across jobs), nor are broadcast
// records, which every partition sees. A Match hands an owned record to its
// UDF at the record's last pairing (matchAligned), so the UDF may build its
// result in the record's storage; room is the width the records leaving
// the edge's builder reserve for that, zero where nothing will widen them.
// width is the producer's estimated bytes per record, zero when the plan
// has no estimate.
type edge struct {
	ship  optimizer.Shipping
	keys  []int
	chain []*optimizer.PhysPlan // producer first
	slot  int                   // index of the chain's first OpStats in RunStats.PerOp
	owned bool
	room  int
	width float64

	// data is the producer's output until the edge's stage has run, then
	// what the operator's partitions received; spills is the per-partition
	// overflow state of a shuffled edge.
	data   Partitioned
	spills []*partitionSpill

	counts        []opCount // per chain level, summed over goroutines
	routed        int       // records the shuffle senders routed
	combinerCalls int

	// The window of the fused loop the chain ran in, for the Maps' spans
	// and LocalTime: when it began (zero: it never did), each Map's even
	// share of its wall time, and whether it ran to completion.
	start time.Time
	share time.Duration
	done  bool
}

// phase names the edge's sender → receiver stage in spans and errors.
func (ed *edge) phase() string {
	if ed.ship == optimizer.ShipBroadcast {
		return "broadcast"
	}
	return "shuffle"
}

// isChainable reports whether the engine may fuse this plan node onto the
// edge it feeds: a Map annotated Chained by the physical optimizer, fed by
// a local forward (no repartitioning in between). Any other Map runs as an
// operator of its own, its local strategy a chain of length one.
func isChainable(p *optimizer.PhysPlan) bool {
	return p.Chained && p.Op.Kind == dataflow.KindMap && p.Op.UDF != nil &&
		len(p.Inputs) == 1 && len(p.Ship) == 1 && p.Ship[0] == optimizer.ShipForward
}

// chainBelow collects the maximal run of chained Map plan nodes starting at
// p (walking producer-wards while isChainable holds) and returns the run in
// execution (producer-first) order together with the pipeline breaker below
// it.
func chainBelow(p *optimizer.PhysPlan) ([]*optimizer.PhysPlan, *optimizer.PhysPlan) {
	var chain []*optimizer.PhysPlan
	node := p
	for isChainable(node) {
		chain = append(chain, node)
		node = node.Inputs[0]
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, node
}

// exec executes one plan node: its producers first (post-order), then the
// operator through run. It is the only place operator spans are opened,
// failed and closed and RunStats.PerOp is appended to: every operator that
// started gets a span, and one is failed exactly when the run failed before
// that operator finished. The Maps fused onto an input edge report through
// the same epilogue — exact record and call counts, and an even share of
// the wall time of the fused loop they ran in (see run). The records the
// operator's UDF builds reserve room fields; width is the plan's record
// width (recordWidth), what an owned edge into a Match reserves.
func (e *Engine) exec(ctx context.Context, p *optimizer.PhysPlan, stats *RunStats, width, room int) (Partitioned, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	op := p.Op
	edges := make([]edge, len(p.Inputs))
	for i, in := range p.Inputs {
		ed := &edges[i]
		if i < len(p.Ship) {
			ed.ship = p.Ship[i] // else the zero value, ShipForward
		}
		if i < len(op.Keys) {
			ed.keys = op.Keys[i]
		}
		var producer *optimizer.PhysPlan
		ed.chain, producer = chainBelow(in)
		if producer.OutRecords > 0 {
			ed.width = producer.OutBytes / producer.OutRecords
		}
		ed.owned = ed.ship != optimizer.ShipBroadcast && (len(ed.chain) > 0 || producer.Op.IsUDFOp())
		if ed.owned && op.Kind == dataflow.KindMatch {
			ed.room = width
		}
		producerRoom := ed.room
		if len(ed.chain) > 0 {
			producerRoom = 0 // the chain's last Map builds what the edge carries
		}
		var err error
		if ed.data, err = e.exec(ctx, producer, stats, width, producerRoom); err != nil {
			return nil, err
		}
		// Reserve the chain's statistics slots now so PerOp stays in plan
		// post-order when a later input appends its own subtree.
		ed.counts = make([]opCount, len(ed.chain))
		ed.slot = len(stats.PerOp)
		for _, m := range ed.chain {
			stats.PerOp = append(stats.PerOp, OpStats{Name: m.Op.Name})
		}
	}
	// Spill files live exactly as long as the operator that reads them.
	defer func() {
		for i := range edges {
			closeSpills(edges[i].spills)
		}
	}()

	tr := e.Trace
	st := OpStats{Name: op.Name}
	opSpan := tr.Begin(e.TraceParent, op.Name, obs.KindOp)
	out, err := e.run(ctx, p, edges, &st, opSpan, room)

	for i := range edges {
		ed := &edges[i]
		for level, m := range ed.chain {
			c := ed.counts[level]
			stats.PerOp[ed.slot+level] = OpStats{Name: m.Op.Name,
				InRecords: c.in, OutRecords: c.out, UDFCalls: c.calls, LocalTime: ed.share}
			if tr == nil || ed.start.IsZero() {
				continue
			}
			// One pre-timed span per fused Map, tiling the fused loop's
			// window in chain order.
			s := obs.Span{
				Name:    m.Op.Name,
				Kind:    obs.KindOp,
				Start:   ed.start.Add(ed.share * time.Duration(level)),
				End:     ed.start.Add(ed.share * time.Duration(level+1)),
				Records: int64(c.out),
				Calls:   int64(c.calls),
				Detail:  "fused into " + op.Name,
			}
			if err != nil && !ed.done {
				s.Err = err.Error()
			}
			tr.Import(e.TraceParent, s)
		}
	}
	if err != nil {
		tr.Fail(opSpan, err)
		return nil, err
	}
	tr.EndWith(opSpan, func(s *obs.Span) {
		s.Records = int64(st.OutRecords)
		s.Bytes = int64(st.ShippedBytes)
		s.Calls = int64(st.CombinerCalls)
		s.Runs = int64(st.SpillRuns)
	})
	stats.PerOp = append(stats.PerOp, st)
	return out, nil
}

// run takes one operator through the pipeline's stages, choosing each
// stage's variant in this one place:
//
//   - fused Maps: a chain on a forward edge (incl. the Sink's) runs in a
//     materialising loop (runChain); a chain on a shipped edge runs inside
//     that edge's senders, so no intermediate partitions exist.
//   - sender → receiver: a partitioned or broadcast edge goes through
//     shuffle — the senders hash-route each record to one target or hand
//     it to every target, combining first for a Combinable Reduce, the
//     receivers spilling under recvBudget; a forward edge stays where it is.
//   - local: one entry (local) over every side's resident records plus
//     spilled runs.
//
// Time is attributed by one rule: a fused loop's wall time is split evenly
// among the operators working in it — the chain's Maps (their LocalTime)
// and, for the shipping window, the operator itself (its ShipTime).
func (e *Engine) run(ctx context.Context, p *optimizer.PhysPlan, edges []edge, st *OpStats, opSpan obs.SpanID, room int) (Partitioned, error) {
	op, tr := p.Op, e.Trace
	combining := p.Combinable && op.Kind == dataflow.KindReduce && op.Combiner != nil &&
		len(edges) == 1 && edges[0].ship == optimizer.ShipPartition
	budget := e.recvBudget(p)

	moves, fused := false, 0
	for i := range edges {
		ed := &edges[i]
		if ed.ship != optimizer.ShipForward {
			moves = true
			fused += len(ed.chain)
			continue
		}
		if len(ed.chain) > 0 {
			ed.start = time.Now()
			var err error
			ed.data, err = e.runChain(ctx, ed.data, ed.chain, ed.room, ed.counts)
			ed.share = time.Since(ed.start) / time.Duration(len(ed.chain))
			if err != nil {
				return nil, err
			}
			ed.done = true
		}
		st.InRecords += ed.data.Records()
	}

	// The op-level ship span only opens when some input actually moves, so
	// source/forward operators don't accrete empty phase spans; a combining
	// shuffle's own combine-ship span stands in for it.
	shipStart := time.Now()
	parent := opSpan
	if moves && !combining {
		parent = tr.Begin(opSpan, "ship", obs.KindShip)
	}
	var err error
	for i := range edges {
		ed := &edges[i]
		if ed.ship == optimizer.ShipForward {
			continue
		}
		ed.start = time.Now()
		var combiner *dataflow.Operator
		if combining {
			combiner = op
		}
		bytes, serr := e.shuffle(ctx, parent, ed, combiner, budget)
		ed.done = serr == nil
		st.InRecords += ed.routed
		st.CombinerCalls += ed.combinerCalls
		st.ShippedBytes += bytes
		if err = attribute(ctx, op.Name, ed.phase(), serr); err != nil {
			break
		}
	}
	// A cancelled shuffle returns partial partitions; discard them rather
	// than let a truncated input masquerade as the operator's real input.
	if err == nil {
		err = context.Cause(ctx)
	}
	window := time.Since(shipStart)
	share := window / time.Duration(fused+1)
	st.ShipTime = window - share*time.Duration(fused)
	for i := range edges {
		if edges[i].ship != optimizer.ShipForward {
			edges[i].share = share
		}
	}
	if parent != opSpan {
		if err != nil {
			tr.Fail(parent, err)
		} else {
			tr.EndWith(parent, func(s *obs.Span) { s.Bytes = int64(st.ShippedBytes) })
		}
	}
	if err != nil {
		return nil, err
	}
	e.observeShip(st)
	for i := range edges {
		for _, sp := range edges[i].spills {
			st.SpilledBytes += sp.bytes
			st.SpillRuns += len(sp.runs)
		}
		e.foldSpillSpans(opSpan, edges[i].spills)
	}

	localSpan := tr.Begin(opSpan, "local", obs.KindLocal)
	localStart := time.Now()
	out, calls, err := e.local(ctx, p, edges, room)
	releaseInputs(op, edges)
	if err = attribute(ctx, op.Name, "local", err); err != nil {
		tr.Fail(localSpan, err)
		return nil, err
	}
	st.LocalTime = time.Since(localStart)
	st.UDFCalls = calls
	st.OutRecords = out.Records()
	e.mergeSpan(localSpan, localStart, st)
	tr.EndWith(localSpan, func(s *obs.Span) { s.Calls = int64(calls) })
	return out, nil
}

// releaseInputs gives back the slabs of the frames the operator's shuffled
// inputs were decoded from, once its local stage is done with their records
// — except for an input its output may keep (keepsInput).
func releaseInputs(op *dataflow.Operator, edges []edge) {
	for i := range edges {
		if keepsInput(op, edges, i) {
			continue
		}
		for _, sp := range edges[i].spills {
			sp.releaseSlabs()
		}
	}
}

// recvBudget returns the resident-byte budget of each of p's shuffle
// receivers, or zero when they stay fully resident: no MemoryBudget, an
// operator that is not a grouping or join, or no partitioned input.
// Forward-shipped inputs are already resident in the producer's partitions,
// so there is no receiver to bound; the receivers of an operator with a
// broadcast input (Match strategy B, Cross) stay resident — the optimizer's
// spill term prices that residency, the engine does not yet spill it. The
// budget is split evenly across the operator's DOP partitions and its
// shuffled inputs; a share that truncates to zero stays a budget (collect
// floors it at one batch's worth).
func (e *Engine) recvBudget(p *optimizer.PhysPlan) int {
	switch p.Op.Kind {
	case dataflow.KindReduce, dataflow.KindCoGroup, dataflow.KindMatch:
	default:
		return 0
	}
	shuffled := 0
	for _, s := range p.Ship {
		switch s {
		case optimizer.ShipPartition:
			shuffled++
		case optimizer.ShipBroadcast:
			return 0
		}
	}
	if e.MemoryBudget <= 0 || shuffled == 0 {
		return 0
	}
	return max(1, e.MemoryBudget/(e.DOP*shuffled))
}

// runner binds the calling goroutine to op's UDF, which must be of the given
// kind, its records reserving room fields.
func (e *Engine) runner(op *dataflow.Operator, kind tac.Kind, room int) (*tac.Runner, error) {
	r, err := tac.NewRunner(op.UDF, kind)
	if err != nil {
		return nil, &opError{op.Name, err}
	}
	r.Reserve(room)
	return r, nil
}

// recordWidth is the plan's record width: one past the highest field index
// its sources produce or its operators key on. A concat is no wider than
// its operands, so the records an owned edge hands a Match chain widen
// within it.
func recordWidth(p *optimizer.PhysPlan) int {
	w := 0
	for f := range p.Op.SourceAttrs.All() {
		w = max(w, f+1)
	}
	for _, keys := range p.Op.Keys {
		for _, k := range keys {
			w = max(w, k+1)
		}
	}
	for _, in := range p.Inputs {
		w = max(w, recordWidth(in))
	}
	return w
}

// udfError attributes a failed Runner call: what the emit sink returned
// passes through as it is (whoever produced it named it), anything else is
// the operator's UDF failing.
func udfError(op *dataflow.Operator, err error) error {
	if err == nil {
		return nil
	}
	if inner, ok := tac.AsEmitError(err); ok {
		return inner
	}
	return &opError{op.Name, err}
}

// chainFeed builds one goroutine's entry point into a fused Map chain: one
// reusable Runner and one emit closure per chain level, so the steady-state
// loop allocates nothing per record beyond the records the UDFs emit. The
// feed tallies exact per-level counts and cascades every record leaving the
// chain into sink (a partition's output sink, or a shuffle sender's route).
// An empty chain is the sink itself. UDF errors are attributed to their
// operator; sink errors pass through unwrapped. The records leaving the
// chain reserve room fields; those passed between its Maps stay shared.
func (e *Engine) chainFeed(chain []*optimizer.PhysPlan, room int, c []opCount, sink func(record.Record) error) (func(record.Record) error, error) {
	feed := sink
	for level := len(chain) - 1; level >= 0; level-- {
		op := chain[level].Op
		udf, err := e.runner(op, tac.KindMap, room)
		if err != nil {
			return nil, err
		}
		room = 0
		next := feed
		cl := &c[level]
		onEmit := func(r record.Record) error {
			cl.out++
			return next(r)
		}
		feed = func(r record.Record) error {
			cl.in++
			cl.calls++
			return udfError(op, udf.Map(r, onEmit))
		}
	}
	return feed, nil
}

// drive pushes one partition's records into feed, consulting the context
// every cancelStride records.
func drive(ctx context.Context, part []record.Record, feed func(record.Record) error) error {
	var tick ticker
	for _, r := range part {
		if tick.due() && context.Cause(ctx) != nil {
			return context.Cause(ctx)
		}
		if err := feed(r); err != nil {
			return err
		}
	}
	return nil
}

// runChain pushes every partition through the fused Map chain concurrently
// and materialises what leaves it: records flow through the whole chain one
// at a time, so a chain of k Maps allocates no intermediate partitions. The
// per-level counts are added into total even when the loop fails.
func (e *Engine) runChain(ctx context.Context, in Partitioned, chain []*optimizer.PhysPlan, room int, total []opCount) (Partitioned, error) {
	counts := make([][]opCount, len(in))
	records := func(i int) int { return len(in[i]) }
	out, _, err := fanOut(len(in), e.outSize(chain[len(chain)-1], records), func(i int, emit func(record.Record) error) (int, error) {
		counts[i] = make([]opCount, len(chain))
		feed, err := e.chainFeed(chain, room, counts[i], emit)
		if err == nil {
			err = drive(ctx, in[i], feed)
		}
		return 0, err
	})
	for _, c := range counts {
		for level := range c {
			total[level].add(c[level])
		}
	}
	return out, err
}

// outSize returns the capacity each output partition of p starts at: the
// plan's estimated share of p's output records plus an eighth and 16, so a
// near-even spread fills it without regrowing, but never more than the
// partition's input records (records(i)). That bound is exact where SCA
// bounds the UDF at one emit per call and the operator calls it at most
// once per input record — a Map chain, a Reduce (once per group), a
// foreign-key Match — and elsewhere keeps an estimate, which a job
// document's hints steer, from allocating ahead of the data. A wrong
// estimate only brings back append growth.
func (e *Engine) outSize(p *optimizer.PhysPlan, records func(i int) int) func(i int) int {
	est := max(p.OutRecords, 0)/float64(e.DOP)*9/8 + 16
	return func(i int) int {
		if n := records(i); !(est < float64(n)) {
			return n
		}
		return int(est)
	}
}

// fanOut runs fn for every partition index concurrently — the engine's one
// parallel-for — handing each the sink of its output partition, which
// starts at size(i) records, and gathers the partitions and the UDF calls
// made. The sink is the one shape every UDF call emits into (tac.Runner);
// it never fails.
func fanOut(n int, size func(i int) int, fn func(i int, emit func(record.Record) error) (int, error)) (Partitioned, int, error) {
	out := make(Partitioned, n)
	calls := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part := make([]record.Record, 0, size(i))
			calls[i], errs[i] = fn(i, func(r record.Record) error {
				part = append(part, r)
				return nil
			})
			out[i] = part
		}(i)
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
