package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/props"
)

// Shipping is a data shipping strategy for one operator input.
type Shipping uint8

// Shipping strategies.
const (
	ShipForward   Shipping = iota // keep data where it is (local forward)
	ShipPartition                 // hash-partition by the input's key fields
	ShipBroadcast                 // replicate to every parallel instance
)

// String returns the strategy's name.
func (s Shipping) String() string {
	switch s {
	case ShipForward:
		return "forward"
	case ShipPartition:
		return "partition"
	case ShipBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("ship(%d)", uint8(s))
	}
}

// localName names the local strategy of an operator kind: each kind has
// exactly one, so a plan records none.
func localName(k dataflow.OpKind) string {
	switch k {
	case dataflow.KindSource:
		return "scan"
	case dataflow.KindReduce:
		return "hash-group"
	case dataflow.KindMatch:
		return "hash-join"
	case dataflow.KindCross:
		return "nested-loop"
	case dataflow.KindCoGroup:
		return "cogroup"
	}
	return "pipe"
}

// PhysPlan is a physical execution plan: the operator tree annotated with
// shipping strategies, estimates, and cumulative cost. Its local strategy
// follows from its operator's kind (localName).
type PhysPlan struct {
	Op     *dataflow.Operator
	Tree   *Tree
	Inputs []*PhysPlan

	Ship []Shipping // per input
	// BuildSide selects the hash-join build input (0 or 1).
	BuildSide int

	// Chained marks a pipelineable UDF operator (currently Maps) whose
	// single input arrives via ShipForward: no repartitioning separates it
	// from its producer, so the engine fuses it into the upstream partition
	// loop instead of materializing the intermediate partitions. Computed
	// here rather than in the engine so that physical plans fully describe
	// their own execution shape.
	Chained bool

	// Combinable marks a shuffled Reduce whose declared combiner passed the
	// read/write-set safety check (props.CombinerSafe): the engine applies
	// the combiner to every per-target batch on the shuffle senders before
	// flushing, shipping at most one record per (group key, target) per
	// flush window. Like Chained, it is an engine contract computed during
	// physical optimization; plans without the annotation ship every
	// record.
	Combinable bool

	// Partitioned is the set of key attributes the output is
	// hash-partitioned by (nil/empty when unpartitioned) — the interesting
	// property tracked during physical optimization.
	Partitioned props.FieldSet

	// Estimates.
	OutRecords float64
	OutBytes   float64

	// Cost is cumulative over the subtree.
	Cost Cost

	inBuf   [2]*PhysPlan // back Inputs and Ship of optimizer-built plans
	shipBuf [2]Shipping
}

// String renders the plan node.
func (p *PhysPlan) String() string {
	ships := make([]string, len(p.Ship))
	for i, s := range p.Ship {
		ships[i] = s.String()
	}
	suffix := ""
	if p.Chained {
		suffix = ";chained"
	}
	if p.Combinable {
		suffix += ";combine"
	}
	return fmt.Sprintf("%s{%s;%s%s}", p.Op.Name, strings.Join(ships, ","), localName(p.Op.Kind), suffix)
}

// Indent renders the physical plan as an indented listing with strategies
// and estimates.
func (p *PhysPlan) Indent() string {
	var b strings.Builder
	var rec func(n *PhysPlan, depth int)
	rec = func(n *PhysPlan, depth int) {
		pad := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s  [out=%.0f recs, %.0f B]", pad, n, n.OutRecords, n.OutBytes)
		if n.Partitioned.Len() > 0 {
			fmt.Fprintf(&b, " part=%s", n.Partitioned)
		}
		b.WriteByte('\n')
		for _, in := range n.Inputs {
			rec(in, depth+1)
		}
	}
	rec(p, 0)
	return b.String()
}

// PhysicalOptimizer chooses shipping strategies and hash-join build sides
// for an operator tree, exploiting interesting properties (partitioning
// reuse) as sketched at the end of Section 6 and demonstrated with TPC-H
// Q15 in Section 7.3.
//
// The optimizer memoizes candidate plans per sub-flow node, so when it is
// reused across the alternatives of an enumeration — whose trees share one
// node per distinct sub-flow — every sub-flow is optimized once: the
// integration of physical optimization with enumeration that Section 6
// describes ("the principle of optimality can be exploited which
// effectively reduces the number of enumerated alternatives").
type PhysicalOptimizer struct {
	Est *Estimator
	// DOP is the degree of parallelism (the paper's evaluation uses 32).
	DOP int
	// UseInterestingProps keeps candidate plans per partitioning property;
	// disabling it (for the ablation benchmark) keeps only the cheapest
	// plan per sub-tree regardless of its output partitioning.
	UseInterestingProps bool
	// MemoryBudget mirrors the engine's Engine.MemoryBudget (bytes; zero =
	// unlimited): when set, shuffled grouping and join operators whose
	// receiver volume exceeds it are charged the disk traffic of sorting,
	// spilling, and externally merging the overflow (see spillCost), and
	// broadcast join build sides are charged on their replicated volume
	// (broadcastSpillCost). The term is what makes plan enumeration prefer
	// combinable, forward-shipping, or broadcast alternatives exactly when
	// the budget is tight.
	MemoryBudget float64
	// Net is the measured profile of the transport the plan will run on
	// (see NetProfile): every shuffled or broadcast edge's byte volume is
	// scaled against ReferenceNetBytesPerSec and charged the measured
	// round-trip latency per shuffle barrier. The zero profile keeps the
	// Net term as raw bytes — the simulated-network behavior all
	// single-process runs use.
	Net NetProfile

	// The search state, which dies with the ranking: the kept candidates of
	// every node are value records in one pointer-free slice, and a
	// *PhysPlan is built only for a candidate some returned plan uses.
	memo     []span           // by node id in Est's table: the node's list in kept; zero until built
	kept     []cand           // every node's kept candidates, end to end; kept[0] is never in a list
	parts    []props.FieldSet // interned output partitionings; parts[0] is the empty set
	bothKeys []int32          // by operator ID: the interned union of a join's keys; 0 until interned
	phys     []*PhysPlan      // by candidate: its plan, nil until built
}

// cand is one kept candidate plan of a node: its inputs are candidates of
// the node's kids and its partitioning an index into parts. Its records and
// bytes are the node's estimates, which every candidate of a node shares.
type cand struct {
	in                  [2]int32
	part                int32
	ship                [2]Shipping
	build               uint8 // BuildSide
	chained, combinable bool
	cost                Cost
}

// NewPhysicalOptimizer returns a physical optimizer with default settings.
func NewPhysicalOptimizer(est *Estimator, dop int) *PhysicalOptimizer {
	return &PhysicalOptimizer{
		Est: est, DOP: dop, UseInterestingProps: true,
		kept: make([]cand, 1), parts: make([]props.FieldSet, 1),
	}
}

// CPU work factors for local strategies (relative units per record).
const (
	cpuSortFactor  = 0.08
	cpuHashFactor  = 0.03
	cpuProbeFactor = 0.02
	cpuPipeFactor  = 0.01
)

// mergeFanIn is the modeled merge fan-in of the external grouping path: the
// number of sorted runs one merge pass combines. The engine's group merge
// is actually single-pass (unbounded fan-in), so for realistic run counts
// the model charges exactly one pass; the notional multi-pass penalty only
// kicks in at extreme run counts, where a real system would have to cascade
// merges.
const mergeFanIn = 128

// spillCost estimates the disk traffic of grouping vol receiver bytes under
// a memory budget: zero when the volume fits, otherwise the overflow is
// written once and read back once per merge pass, with the pass count
// derived from the estimated run count (runs ≈ vol/budget) and mergeFanIn.
func spillCost(vol, budget float64) float64 {
	if budget <= 0 || vol <= budget {
		return 0
	}
	spilled := vol - budget
	runs := math.Ceil(vol / budget)
	passes := 1.0
	for r := runs; r > mergeFanIn; r = math.Ceil(r / mergeFanIn) {
		passes++
	}
	return 2 * spilled * passes
}

// Optimize returns the cheapest physical plan for the operator tree.
func (po *PhysicalOptimizer) Optimize(t *Tree) *PhysPlan {
	t = po.Est.tab.intern(t)
	return po.build(t, po.best(po.plans(t)))
}

// best returns the cheapest candidate in s; ties keep the earlier one.
func (po *PhysicalOptimizer) best(s span) int32 {
	b := s.lo
	for i := s.lo + 1; i < s.hi; i++ {
		if po.kept[i].cost.Total() < po.kept[b].cost.Total() {
			b = i
		}
	}
	return b
}

// build returns the plan of candidate i of node t, built once however many
// plans share it. The plan points to t, unless the table carved t from a
// chunk of other nodes, which a kept plan pointing to t would pin: then the
// plan is allocated together with a copy of t over its inputs' copies, and
// points to that. A copy leaves its sets to resolve anew, in its own setBuf.
func (po *PhysicalOptimizer) build(t *Tree, i int32) *PhysPlan {
	if p := grow(&po.phys, i)[i]; p != nil {
		return p
	}
	var in [2]*PhysPlan
	var kids [2]*Tree
	for j, k := range t.Kids {
		in[j] = po.build(k, po.kept[i].in[j])
		kids[j] = in[j].Tree
	}
	var p *PhysPlan
	own, c := t, &po.kept[i]
	if po.Est.tab.carve {
		n := new(struct {
			p PhysPlan
			t Tree
		})
		p, own = &n.p, &n.t
		*own = Tree{Op: t.Op, kidBuf: kids, key: t.key}
		if k := len(t.Kids); k > 0 {
			own.Kids = own.kidBuf[:k:k]
		}
	} else {
		p = new(PhysPlan)
	}
	*p = PhysPlan{
		Op: t.Op, Tree: own, BuildSide: int(c.build),
		Chained: c.chained, Combinable: c.combinable, Partitioned: po.parts[c.part],
		OutRecords: po.Est.Records(t), OutBytes: po.Est.Bytes(t), Cost: c.cost,
		inBuf: in, shipBuf: c.ship,
	}
	k := len(t.Kids)
	p.Inputs, p.Ship = p.inBuf[:k:k], p.shipBuf[:k:k]
	po.phys[i] = p
	return p
}

// offer keeps candidate c of the node whose list starts at from, pruning as
// candidates are offered: per distinct output-partitioning property only the
// cheapest plan is kept (the principle of optimality with interesting
// properties), in first-seen order of the properties; with interesting
// properties disabled a single global cheapest plan is kept. Ties keep the
// earlier candidate. Kept lists are a handful long, so a scan comparing
// interned partitioning ids beats any keyed table.
func (po *PhysicalOptimizer) offer(from int32, c cand) {
	for i := from; i < int32(len(po.kept)); i++ {
		if cur := &po.kept[i]; !po.UseInterestingProps || cur.part == c.part {
			if c.cost.Total() < cur.cost.Total() {
				*cur = c
			}
			return
		}
	}
	add(&po.kept, c)
}

// part interns an output partitioning: equal sets get one id, so kept
// candidates compare partitionings as integers. The empty set is 0.
func (po *PhysicalOptimizer) part(s props.FieldSet) int32 {
	if s.Empty() {
		return 0
	}
	for i, p := range po.parts {
		if p.Equal(s) {
			return int32(i)
		}
	}
	po.parts = append(po.parts, s)
	return int32(len(po.parts) - 1)
}

// plans returns where in kept the candidate plans of a subtree lie: the
// cheapest per interesting partitioning property, memoized by node id so
// that alternatives sharing sub-flows share their plans. t is a node of
// Est's table.
func (po *PhysicalOptimizer) plans(t *Tree) span {
	if s := grow(&po.memo, t.id)[t.id]; s != (span{}) {
		return s
	}
	// The kids' lists first, so this node's is appended in one piece.
	var ins [2]span
	for i, k := range t.Kids {
		ins[i] = po.plans(k)
	}
	from := int32(len(po.kept))
	op := t.Op
	// The node's own estimates, shared by all its candidates, and its
	// inputs' (every plan of a node carries the node's estimates).
	bytes, udfCPU := po.Est.Bytes(t), po.Est.CPUCost(t)
	var inRecs, inBytes [2]float64
	for i, k := range t.Kids {
		inRecs[i], inBytes[i] = po.Est.Records(k), po.Est.Bytes(k)
	}
	switch op.Kind {
	case dataflow.KindSource:
		po.offer(from, cand{cost: Cost{Disk: bytes}})

	case dataflow.KindSink:
		for i := ins[0].lo; i < ins[0].hi; i++ {
			in := po.kept[i]
			po.offer(from, cand{in: [2]int32{i}, ship: [2]Shipping{ShipForward}, part: in.part, cost: in.cost})
		}

	case dataflow.KindMap:
		for i := ins[0].lo; i < ins[0].hi; i++ {
			in := po.kept[i]
			// Partitioning survives a Map that does not write the keys.
			var part int32
			if in.part != 0 && props.Disjoint(t.Writes(), po.parts[in.part]) {
				part = in.part
			}
			cost := in.cost.Plus(Cost{CPU: udfCPU + cpuPipeFactor*inRecs[0]})
			po.offer(from, cand{in: [2]int32{i}, ship: [2]Shipping{ShipForward},
				chained: true, part: part, cost: cost})
		}

	case dataflow.KindReduce:
		key := op.KeySet(0)
		keyPart := po.part(key)
		// The combiner declaration is only honored when it survives the
		// read/write-set safety check against the attributes actually
		// present on the input edge (Section 5's derived properties gate
		// the rewrite, not the declaration alone).
		combSafe := op.Combiner != nil &&
			props.CombinerSafe(op.CombinerEffect, key, t.Kids[0].Attrs())
		for i := ins[0].lo; i < ins[0].hi; i++ {
			in := po.kept[i]
			ship := ShipPartition
			net := inBytes[0]
			combinable := false
			// Interesting property: a compatible existing partitioning
			// makes the shuffle unnecessary (records with equal reduce keys
			// are already co-located).
			if in.part != 0 && po.parts[in.part].SubsetOf(key) {
				ship, net = ShipForward, 0
			} else if combSafe {
				// Pre-shuffle partial aggregation: each of DOP senders
				// ships at most one record per group key per flush window,
				// so the shuffle volume is bounded by key cardinality, not
				// input cardinality.
				combinable = true
				net = po.combinedShuffleBytes(op, inRecs[0], inBytes[0])
			}
			// Under a memory budget, whatever volume lands on the shuffle
			// receivers beyond the budget is sorted, spilled, and merged
			// back — a combinable plan's receivers see the combined (much
			// smaller) volume, which is how tight budgets steer enumeration
			// toward combinable and forward-shipping alternatives.
			var spillDisk float64
			shuffles := 0
			if ship == ShipPartition {
				spillDisk = spillCost(net, po.MemoryBudget)
				shuffles = 1
			}
			localCPU := cpuHashFactor * inRecs[0]
			if combinable {
				// Sender-side grouping and combiner calls are hash work
				// over the full input.
				localCPU += cpuHashFactor * inRecs[0]
			}
			cost := in.cost.Plus(Cost{Net: po.Net.cost(net, shuffles), Disk: spillDisk, CPU: udfCPU + localCPU})
			po.offer(from, cand{in: [2]int32{i}, ship: [2]Shipping{ship},
				combinable: combinable, part: keyPart, cost: cost})
		}

	case dataflow.KindMatch:
		po.joinPlans(t, from, ins, inRecs, inBytes, udfCPU)

	case dataflow.KindCross:
		// Broadcast the smaller side, forward the larger.
		small, big := 0, 1
		ship := [2]Shipping{ShipBroadcast, ShipForward}
		if inBytes[0] > inBytes[1] {
			small, big = 1, 0
			ship = [2]Shipping{ShipForward, ShipBroadcast}
		}
		net := inBytes[small] * float64(po.DOP)
		for li := ins[0].lo; li < ins[0].hi; li++ {
			for ri := ins[1].lo; ri < ins[1].hi; ri++ {
				l, r := po.kept[li], po.kept[ri]
				parts := [2]int32{l.part, r.part}
				// The broadcast side is fully resident on every node; under a
				// budget, its replicated volume is charged the spill term
				// (see broadcastSpillCost).
				cost := l.cost.Plus(r.cost).Plus(Cost{Net: po.Net.cost(net, 1),
					Disk: po.broadcastSpillCost(inBytes[small]),
					CPU:  udfCPU})
				po.offer(from, cand{in: [2]int32{li, ri}, ship: ship, part: parts[big], cost: cost})
			}
		}

	case dataflow.KindCoGroup:
		keys := [2]int32{po.part(op.KeySet(0)), po.part(op.KeySet(1))}
		// The engine hash-groups resident sides, but this term still prices
		// sorting both (DESIGN.md, "Optimizer").
		nlg := func(n float64) float64 { return n * math.Log2(math.Max(n, 2)) }
		sortCPU := cpuSortFactor * (nlg(inRecs[0]) + nlg(inRecs[1]))
		for li := ins[0].lo; li < ins[0].hi; li++ {
			for ri := ins[1].lo; ri < ins[1].hi; ri++ {
				l, r := po.kept[li], po.kept[ri]
				ship, shuffle := po.coPartition([2]int32{l.part, r.part}, keys, inBytes)
				cost := l.cost.Plus(r.cost).Plus(Cost{Net: shuffle.Net, Disk: shuffle.Disk, CPU: udfCPU + sortCPU})
				po.offer(from, cand{in: [2]int32{li, ri}, ship: ship, part: keys[0], cost: cost})
			}
		}
	}

	po.memo[t.id] = span{from, int32(len(po.kept))}
	return po.memo[t.id]
}

// coPartition plans the shipping that co-partitions both inputs of a keyed
// binary operator: an input already partitioned on exactly its key is
// forwarded, any other is shuffled. It returns the strategies and the Net
// and Disk cost of the shuffles; under a memory budget the budget is split
// across the shuffled sides, mirroring the engine's per-input share.
func (po *PhysicalOptimizer) coPartition(parts, keys [2]int32, inBytes [2]float64) ([2]Shipping, Cost) {
	ship := [2]Shipping{ShipPartition, ShipPartition}
	var vols [2]float64
	n := 0
	var net float64
	for i, part := range parts {
		if part != 0 && part == keys[i] {
			ship[i] = ShipForward
		} else {
			net += inBytes[i]
			vols[n] = inBytes[i]
			n++
		}
	}
	return ship, Cost{Net: po.Net.cost(net, n), Disk: po.shuffledSpillCost(vols[:n])}
}

// combinedShuffleBytes estimates the shuffle volume of a combinable Reduce:
// every sender ships at most one partial record per group key, so the moved
// bytes are bounded by keyCardinality × DOP records of the input's average
// width (and never exceed the uncombined volume). Flush-window re-emission
// of hot keys is ignored — the estimate is a lower-bound-flavored hint in
// the same spirit as the rest of the hint-driven model.
func (po *PhysicalOptimizer) combinedShuffleBytes(op *dataflow.Operator, inRecs, inBytes float64) float64 {
	width := inBytes / math.Max(inRecs, 1)
	kc := op.Hints.KeyCardinality
	if kc <= 0 {
		kc = inRecs
	}
	recs := math.Min(inRecs, kc*float64(po.DOP))
	return recs * width
}

// broadcastSpillCost prices the residency of a broadcast join build side
// under a memory budget: the side is replicated to every node, so the
// spill term is charged on DOP copies of its volume against the whole
// budget (equivalently: each node's copy against its per-node share). The
// engine does not yet spill broadcast sides — the charge models what a
// spilling implementation must pay, so a tight budget stops pricing
// broadcast joins as free exactly as it stops pricing repartition joins
// as free.
func (po *PhysicalOptimizer) broadcastSpillCost(sideBytes float64) float64 {
	return spillCost(sideBytes*float64(po.DOP), po.MemoryBudget)
}

// shuffledSpillCost sums the spill disk term over the shuffled input
// volumes of a co-partitioned grouping or join, splitting the budget
// across the shuffled sides exactly as the engine splits it across
// spill-tracked inputs.
func (po *PhysicalOptimizer) shuffledSpillCost(vols []float64) float64 {
	if len(vols) == 0 {
		return 0
	}
	var disk float64
	for _, vol := range vols {
		disk += spillCost(vol, po.MemoryBudget/float64(len(vols)))
	}
	return disk
}

// joinPlans offers the Match strategies of the paper's Section 7.3
// discussion, each a hash join: repartition both sides (reusing existing
// partitionings) and build the smaller, or broadcast one side, build it and
// keep the other local. Under a memory budget each is charged the spill
// disk term on the volume it materializes on the receivers — the shuffled
// sides for A (split like CoGroup), the replicated build side for B — so
// tight budgets steer enumeration between repartition and broadcast joins
// instead of pricing both as spill-free.
func (po *PhysicalOptimizer) joinPlans(t *Tree, from int32, ins [2]span, inRecs, inBytes [2]float64, udfCPU float64) {
	op := t.Op
	keys := [2]int32{po.part(op.KeySet(0)), po.part(op.KeySet(1))}
	if grow(&po.bothKeys, int32(op.ID))[op.ID] == 0 {
		po.bothKeys[op.ID] = po.part(props.Union(op.KeySet(0), op.KeySet(1)))
	}
	bothKeys := po.bothKeys[op.ID]
	// Strategy A builds the smaller side.
	build := 0
	if inBytes[1] < inBytes[0] {
		build = 1
	}
	for li := ins[0].lo; li < ins[0].hi; li++ {
		for ri := ins[1].lo; ri < ins[1].hi; ri++ {
			l, r := po.kept[li], po.kept[ri]
			in, parts := [2]int32{li, ri}, [2]int32{l.part, r.part}
			base := l.cost.Plus(r.cost)
			coShip, shuffle := po.coPartition(parts, keys, inBytes)

			// Strategy A: co-partition + hash join (build the smaller side).
			cpu := cpuHashFactor*inRecs[build] + cpuProbeFactor*inRecs[1-build]
			cost := base.Plus(Cost{Net: shuffle.Net, Disk: shuffle.Disk, CPU: udfCPU + cpu})
			po.offer(from, cand{in: in, ship: coShip, build: uint8(build), part: bothKeys, cost: cost})

			// Strategy B: broadcast one side (build it), forward the other.
			for bc := 0; bc < 2; bc++ {
				ship := [2]Shipping{ShipForward, ShipForward}
				ship[bc] = ShipBroadcast
				net := inBytes[bc] * float64(po.DOP)
				cpu := cpuHashFactor*inRecs[bc]*float64(po.DOP) + cpuProbeFactor*inRecs[1-bc]
				cost := base.Plus(Cost{Net: po.Net.cost(net, 1),
					Disk: po.broadcastSpillCost(inBytes[bc]),
					CPU:  udfCPU + cpu})
				po.offer(from, cand{in: in, ship: ship, build: uint8(bc), part: parts[1-bc], cost: cost})
			}
		}
	}
}

// RankedPlan pairs an alternative with its best physical plan.
type RankedPlan struct {
	Tree *Tree
	Phys *PhysPlan
	Cost float64
	Rank int // 1-based after sorting
	// Enum is the effort of the enumeration behind the ranking, shared by
	// all its plans.
	Enum *EnumStats
}

// Plan ranks every valid reordering of the flow: it validates the flow,
// then ranks with RankAllNet under a fresh Estimator. The ranking is never
// empty — it always holds the flow's own order — and ranked[0] is the plan
// Best returns. Callers that run a plan and drop the rest call Best.
func Plan(f *dataflow.Flow, dop int, memoryBudget float64, net NetProfile) ([]RankedPlan, error) {
	tree, err := FromFlow(f)
	if err != nil {
		return nil, err
	}
	return RankAllNet(tree, NewEstimator(f), dop, memoryBudget, net), nil
}

// Best is the plan to run: Plan's ranked[0] — the same tree, physical plan
// and cost, with the same EnumStats — from the same search, which costs
// every alternative but builds a plan for the winner only. Its Enum.Expanded
// is the number of alternatives costed. The plan owns its nodes: keeping it
// (the scheduler's plan cache keeps 256) pins nothing of the search.
func Best(f *dataflow.Flow, dop int, memoryBudget float64, net NetProfile) (RankedPlan, error) {
	tree, err := FromFlow(f)
	if err != nil {
		return RankedPlan{}, err
	}
	return newRanker(NewEstimator(f), dop, memoryBudget, net).winner(tree), nil
}

// RankAllNet enumerates all reorderings of the flow tree, physically
// optimizes each, and returns them sorted by ascending estimated cost — the
// procedure behind the paper's Figures 5–7. memoryBudget (bytes; zero =
// unlimited) adds the spill-aware disk term for shuffled grouping and join
// operators; net is a measured transport profile: shuffle byte volumes are
// scaled against the reference network and every shuffle barrier is charged
// the measured round-trip latency, so rankings computed for a distributed
// deployment reflect the wire the job will actually cross. The zero profile
// prices no network. Equal costs rank by canonical key.
func RankAllNet(t *Tree, est *Estimator, dop int, memoryBudget float64, net NetProfile) []RankedPlan {
	return newRanker(est, dop, memoryBudget, net).rankAll(t)
}

// newRanker is the physical optimizer both views of the search run on.
func newRanker(est *Estimator, dop int, memoryBudget float64, net NetProfile) *PhysicalOptimizer {
	po := NewPhysicalOptimizer(est, dop)
	po.MemoryBudget = memoryBudget
	po.Net = net
	return po
}

// search is the one search behind both views: it enumerates t's
// reorderings into the estimator's node table, so every memo below is keyed
// by its ids, and costs each. It returns the alternatives in the order the
// enumeration found them, each with its cheapest candidate. A node's
// candidates depend only on the node, never on which alternative reached it
// first, so neither the costs nor the stats depend on that order.
func (po *PhysicalOptimizer) search(t *Tree) found {
	enum := NewEnumerator()
	alts := enum.enumerate(po.Est.tab, t)
	// Costing visits only nodes the enumeration built: size the memos once.
	n := len(po.Est.tab.nodes)
	grow(&po.Est.est, int32(n-1))
	grow(&po.memo, int32(n-1))
	// A sub-flow keeps one candidate per output partitioning, seldom more
	// than three; the store doubles past that.
	po.kept = slices.Grow(po.kept, 3*n)
	best := make([]int32, len(alts))
	for i, a := range alts {
		best[i] = po.best(po.plans(a))
	}
	enum.Stats.Kept = len(po.kept) - 1
	return found{po: po, alts: alts, best: best, stats: &enum.Stats, keys: keyList{ts: alts}}
}

// found is what a search found: its alternatives, in the order the
// enumeration found them, and each one's cheapest candidate in po.kept.
type found struct {
	po    *PhysicalOptimizer
	alts  []*Tree
	best  []int32
	stats *EnumStats
	keys  keyList // over alts
}

// compare orders alternatives i and j as every ranking does: by cost, equal
// costs by canonical key. A key is written only when two costs tie.
func (f *found) compare(i, j int32) int {
	a, b := f.po.kept[f.best[i]].cost.Total(), f.po.kept[f.best[j]].cost.Total()
	switch {
	case a == b:
		return f.keys.compare(i, j)
	case a < b:
		return -1
	}
	return 1
}

// plan builds alternative i's best plan and ranks it r.
func (f *found) plan(i int32, r int) RankedPlan {
	phys := f.po.build(f.alts[i], f.best[i])
	return RankedPlan{Tree: phys.Tree, Phys: phys, Cost: phys.Cost.Total(), Rank: r, Enum: f.stats}
}

// rankAll is RankAllNet's view of the search: it sorts every alternative
// and builds each one's best plan, after every alternative is costed and
// for the best candidates only.
func (po *PhysicalOptimizer) rankAll(t *Tree) []RankedPlan {
	f := po.search(t)
	order := make([]int32, len(f.alts)) // sorted instead of the plans: no pointers move
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, f.compare)
	grow(&po.phys, int32(len(po.kept)-1))
	ranked := make([]RankedPlan, len(order))
	for r, i := range order {
		ranked[r] = f.plan(i, r+1)
	}
	return ranked
}

// winner is Best's view of the search: rankAll's first, found by one scan
// with the same order, and the only plan built.
func (po *PhysicalOptimizer) winner(t *Tree) RankedPlan {
	po.Est.tab.carve = true // no node outlives the search: the plan is built over copies
	f := po.search(t)
	var w int32
	for i := int32(1); i < int32(len(f.alts)); i++ {
		if f.compare(i, w) < 0 {
			w = i
		}
	}
	return f.plan(w, 1)
}
