package optimizer

import (
	"fmt"
	"math"
	"sort"
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

// Local is a local execution strategy for an operator.
type Local uint8

// Local strategies.
const (
	LocalPipe       Local = iota // record-at-a-time pipeline (Map, sinks)
	LocalScan                    // source scan
	LocalSortGroup               // sort-based grouping (Reduce)
	LocalHashGroup               // hash-based grouping (Reduce)
	LocalHashJoin                // hash join, build side chosen separately
	LocalMergeJoin               // sort-merge join
	LocalNestedLoop              // block nested loops (Cross)
	LocalSortCoGrp               // sort-based co-grouping (CoGroup)
)

// String returns the strategy's name.
func (l Local) String() string {
	switch l {
	case LocalPipe:
		return "pipe"
	case LocalScan:
		return "scan"
	case LocalSortGroup:
		return "sort-group"
	case LocalHashGroup:
		return "hash-group"
	case LocalHashJoin:
		return "hash-join"
	case LocalMergeJoin:
		return "merge-join"
	case LocalNestedLoop:
		return "nested-loop"
	case LocalSortCoGrp:
		return "sort-cogroup"
	default:
		return fmt.Sprintf("local(%d)", uint8(l))
	}
}

// PhysPlan is a physical execution plan: the operator tree annotated with
// shipping and local strategies, estimates, and cumulative cost.
type PhysPlan struct {
	Op     *dataflow.Operator
	Tree   *Tree
	Inputs []*PhysPlan

	Ship  []Shipping // per input
	Local Local
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
	return fmt.Sprintf("%s{%s;%s%s}", p.Op.Name, strings.Join(ships, ","), p.Local, suffix)
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

// PhysicalOptimizer chooses shipping and local strategies for an operator
// tree, exploiting interesting properties (partitioning reuse) as sketched
// at the end of Section 6 and demonstrated with TPC-H Q15 in Section 7.3.
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
	// Weights fold the cost vector into a scalar for pruning and ranking.
	Weights Weights
	// UseInterestingProps keeps candidate plans per partitioning property;
	// disabling it (for the ablation benchmark) keeps only the cheapest
	// plan per sub-tree regardless of its output partitioning.
	UseInterestingProps bool
	// ShareSubplans memoizes sub-flow plans across Optimize calls (on by
	// default; disabling it restores the naive per-alternative
	// optimization for the ablation benchmark).
	ShareSubplans bool
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

	memo map[*Tree][]*PhysPlan
}

// NewPhysicalOptimizer returns a physical optimizer with default settings.
func NewPhysicalOptimizer(est *Estimator, dop int) *PhysicalOptimizer {
	return &PhysicalOptimizer{
		Est: est, DOP: dop, Weights: DefaultWeights,
		UseInterestingProps: true, ShareSubplans: true,
		memo: map[*Tree][]*PhysPlan{},
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
// number of sorted runs one merge pass combines. The engine's k-way merge
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
	memo := po.memo
	if memo == nil || !po.ShareSubplans {
		memo = map[*Tree][]*PhysPlan{}
	}
	cands := po.plans(t, memo)
	var best *PhysPlan
	for _, c := range cands {
		if best == nil || c.Cost.Total(po.Weights) < best.Cost.Total(po.Weights) {
			best = c
		}
	}
	return best
}

// candidates collects the plans of one sub-flow, pruned as they are offered:
// per distinct output-partitioning property only the cheapest plan is kept
// (the principle of optimality with interesting properties), in first-seen
// order of the properties; with interesting properties disabled a single
// global cheapest plan is kept. Ties keep the earlier candidate.
type candidates struct {
	po   *PhysicalOptimizer
	kept []*PhysPlan
}

// slot returns where to build a candidate with the given property and cost,
// or nil when a kept plan dominates it — so dominated candidates, the vast
// majority, are never materialized. The slot is new or is the kept plan the
// candidate beats; kept lists are a handful long, so a scan comparing
// partitioning sets word by word beats any keyed table.
func (c *candidates) slot(part props.FieldSet, cost Cost) *PhysPlan {
	w := c.po.Weights
	for _, cur := range c.kept {
		if !c.po.UseInterestingProps || cur.Partitioned.Equal(part) {
			if cost.Total(w) < cur.Cost.Total(w) {
				return cur
			}
			return nil
		}
	}
	p := new(PhysPlan)
	c.kept = append(c.kept, p)
	return p
}

// plans returns the candidate plans for a subtree: the cheapest per
// interesting partitioning property, memoized by node identity so that
// alternatives sharing sub-flows share their plans.
func (po *PhysicalOptimizer) plans(t *Tree, memo map[*Tree][]*PhysPlan) []*PhysPlan {
	if ps, ok := memo[t]; ok {
		return ps
	}
	out := candidates{po: po}
	op := t.Op
	// The node's own estimates, shared by all its candidates.
	recs, bytes, udfCPU := po.Est.Records(t), po.Est.Bytes(t), po.Est.CPUCost(t)
	switch op.Kind {
	case dataflow.KindSource:
		*out.slot(nil, Cost{Disk: bytes}) = PhysPlan{
			Op: op, Tree: t, Local: LocalScan,
			OutRecords: recs, OutBytes: bytes,
			Cost: Cost{Disk: bytes},
		}

	case dataflow.KindSink:
		for _, in := range po.plans(t.Kids[0], memo) {
			if p := out.slot(in.Partitioned, in.Cost); p != nil {
				*p = PhysPlan{
					Op: op, Tree: t, Inputs: []*PhysPlan{in},
					Ship: []Shipping{ShipForward}, Local: LocalPipe,
					Partitioned: in.Partitioned,
					OutRecords:  in.OutRecords, OutBytes: in.OutBytes,
					Cost: in.Cost,
				}
			}
		}

	case dataflow.KindMap:
		for _, in := range po.plans(t.Kids[0], memo) {
			// Partitioning survives a Map that does not write the keys.
			var part props.FieldSet
			if !in.Partitioned.Empty() && props.Disjoint(t.Writes(), in.Partitioned) {
				part = in.Partitioned
			}
			cost := in.Cost.Plus(Cost{CPU: udfCPU + cpuPipeFactor*in.OutRecords})
			if p := out.slot(part, cost); p != nil {
				*p = PhysPlan{
					Op: op, Tree: t, Inputs: []*PhysPlan{in},
					Ship: []Shipping{ShipForward}, Local: LocalPipe, Chained: true,
					Partitioned: part,
					OutRecords:  recs, OutBytes: bytes,
					Cost: cost,
				}
			}
		}

	case dataflow.KindReduce:
		key := op.KeySet(0)
		// The combiner declaration is only honored when it survives the
		// read/write-set safety check against the attributes actually
		// present on the input edge (Section 5's derived properties gate
		// the rewrite, not the declaration alone).
		combSafe := op.Combiner != nil &&
			props.CombinerSafe(op.CombinerEffect, key, t.Kids[0].Attrs())
		for _, in := range po.plans(t.Kids[0], memo) {
			ship := ShipPartition
			net := in.OutBytes
			combinable := false
			// Interesting property: a compatible existing partitioning
			// makes the shuffle unnecessary (records with equal reduce keys
			// are already co-located).
			if !in.Partitioned.Empty() && in.Partitioned.SubsetOf(key) {
				ship, net = ShipForward, 0
			} else if combSafe {
				// Pre-shuffle partial aggregation: each of DOP senders
				// ships at most one record per group key per flush window,
				// so the shuffle volume is bounded by key cardinality, not
				// input cardinality.
				combinable = true
				net = po.combinedShuffleBytes(op, in)
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
			for _, local := range [...]Local{LocalSortGroup, LocalHashGroup} {
				n := in.OutRecords
				var localCPU float64
				if local == LocalSortGroup {
					localCPU = cpuSortFactor * n * math.Log2(math.Max(n, 2))
				} else {
					localCPU = cpuHashFactor * n
				}
				if combinable {
					// Sender-side grouping and combiner calls are hash
					// work over the full input.
					localCPU += cpuHashFactor * n
				}
				cost := in.Cost.Plus(Cost{Net: po.Net.cost(net, shuffles), Disk: spillDisk, CPU: udfCPU + localCPU})
				if p := out.slot(key, cost); p != nil {
					*p = PhysPlan{
						Op: op, Tree: t, Inputs: []*PhysPlan{in},
						Ship: []Shipping{ship}, Local: local, Combinable: combinable,
						Partitioned: key,
						OutRecords:  recs, OutBytes: bytes,
						Cost: cost,
					}
				}
			}
		}

	case dataflow.KindMatch:
		po.joinPlans(t, memo, &out, recs, bytes, udfCPU)

	case dataflow.KindCross:
		for _, l := range po.plans(t.Kids[0], memo) {
			for _, r := range po.plans(t.Kids[1], memo) {
				// Broadcast the smaller side, forward the larger.
				small, big := l, r
				ship := [2]Shipping{ShipBroadcast, ShipForward}
				if l.OutBytes > r.OutBytes {
					small, big = r, l
					ship = [2]Shipping{ShipForward, ShipBroadcast}
				}
				net := small.OutBytes * float64(po.DOP)
				// The broadcast side is fully resident on every node; under a
				// budget, its replicated volume is charged the spill term
				// (see broadcastSpillCost).
				cost := l.Cost.Plus(r.Cost).Plus(Cost{Net: po.Net.cost(net, 1),
					Disk: po.broadcastSpillCost(small.OutBytes),
					CPU:  udfCPU})
				if p := out.slot(big.Partitioned, cost); p != nil {
					*p = PhysPlan{
						Op: op, Tree: t, Inputs: []*PhysPlan{l, r},
						Ship: []Shipping{ship[0], ship[1]}, Local: LocalNestedLoop,
						Partitioned: big.Partitioned,
						OutRecords:  recs, OutBytes: bytes,
						Cost: cost,
					}
				}
			}
		}

	case dataflow.KindCoGroup:
		keys := [2]props.FieldSet{op.KeySet(0), op.KeySet(1)}
		for _, l := range po.plans(t.Kids[0], memo) {
			for _, r := range po.plans(t.Kids[1], memo) {
				ship, shuffle := po.coPartition(l, r, keys)
				sortCPU := cpuSortFactor * (l.OutRecords*math.Log2(math.Max(l.OutRecords, 2)) +
					r.OutRecords*math.Log2(math.Max(r.OutRecords, 2)))
				cost := l.Cost.Plus(r.Cost).Plus(Cost{Net: shuffle.Net, Disk: shuffle.Disk, CPU: udfCPU + sortCPU})
				if p := out.slot(keys[0], cost); p != nil {
					*p = PhysPlan{
						Op: op, Tree: t, Inputs: []*PhysPlan{l, r},
						Ship: []Shipping{ship[0], ship[1]}, Local: LocalSortCoGrp,
						Partitioned: keys[0],
						OutRecords:  recs, OutBytes: bytes,
						Cost: cost,
					}
				}
			}
		}
	}

	memo[t] = out.kept
	return out.kept
}

// coPartition plans the shipping that co-partitions both inputs of a keyed
// binary operator: an input already partitioned on exactly its key is
// forwarded, any other is shuffled. It returns the strategies and the Net
// and Disk cost of the shuffles; under a memory budget the budget is split
// across the shuffled sides, mirroring the engine's per-input share.
func (po *PhysicalOptimizer) coPartition(l, r *PhysPlan, keys [2]props.FieldSet) ([2]Shipping, Cost) {
	ship := [2]Shipping{ShipPartition, ShipPartition}
	var vols [2]float64
	n := 0
	var net float64
	for i, in := range [2]*PhysPlan{l, r} {
		if !in.Partitioned.Empty() && in.Partitioned.Equal(keys[i]) {
			ship[i] = ShipForward
		} else {
			net += in.OutBytes
			vols[n] = in.OutBytes
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
func (po *PhysicalOptimizer) combinedShuffleBytes(op *dataflow.Operator, in *PhysPlan) float64 {
	width := in.OutBytes / math.Max(in.OutRecords, 1)
	kc := op.Hints.KeyCardinality
	if kc <= 0 {
		kc = in.OutRecords
	}
	recs := math.Min(in.OutRecords, kc*float64(po.DOP))
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
// discussion: repartition both sides and hash-join (reusing existing
// partitionings), or broadcast the smaller side and keep the larger local,
// or repartition and sort-merge. Under a memory budget every strategy is
// charged the spill disk term on the volume it materializes on the
// receivers — the shuffled sides for A/C (split like CoGroup), the
// replicated build side for B — so tight budgets steer enumeration between
// repartition and broadcast joins instead of pricing both as spill-free.
func (po *PhysicalOptimizer) joinPlans(t *Tree, memo map[*Tree][]*PhysPlan, out *candidates, recs, bytes, udfCPU float64) {
	op := t.Op
	keys := [2]props.FieldSet{op.KeySet(0), op.KeySet(1)}
	bothKeys := props.Union(keys[0], keys[1])
	for _, l := range po.plans(t.Kids[0], memo) {
		for _, r := range po.plans(t.Kids[1], memo) {
			ins := [2]*PhysPlan{l, r}
			base := l.Cost.Plus(r.Cost)
			coShip, shuffle := po.coPartition(l, r, keys)

			// Strategy A: co-partition + hash join (build the smaller side).
			build := 0
			if r.OutBytes < l.OutBytes {
				build = 1
			}
			cpu := cpuHashFactor*ins[build].OutRecords + cpuProbeFactor*ins[1-build].OutRecords
			cost := base.Plus(Cost{Net: shuffle.Net, Disk: shuffle.Disk, CPU: udfCPU + cpu})
			if p := out.slot(bothKeys, cost); p != nil {
				*p = PhysPlan{
					Op: op, Tree: t, Inputs: []*PhysPlan{l, r},
					Ship: []Shipping{coShip[0], coShip[1]}, Local: LocalHashJoin, BuildSide: build,
					Partitioned: bothKeys,
					OutRecords:  recs, OutBytes: bytes,
					Cost: cost,
				}
			}

			// Strategy B: broadcast one side (build it), forward the other.
			for bc := 0; bc < 2; bc++ {
				ship := [2]Shipping{ShipForward, ShipForward}
				ship[bc] = ShipBroadcast
				net := ins[bc].OutBytes * float64(po.DOP)
				cpu := cpuHashFactor*ins[bc].OutRecords*float64(po.DOP) + cpuProbeFactor*ins[1-bc].OutRecords
				cost := base.Plus(Cost{Net: po.Net.cost(net, 1),
					Disk: po.broadcastSpillCost(ins[bc].OutBytes),
					CPU:  udfCPU + cpu})
				if p := out.slot(ins[1-bc].Partitioned, cost); p != nil {
					*p = PhysPlan{
						Op: op, Tree: t, Inputs: []*PhysPlan{l, r},
						Ship: []Shipping{ship[0], ship[1]}, Local: LocalHashJoin, BuildSide: bc,
						Partitioned: ins[1-bc].Partitioned,
						OutRecords:  recs, OutBytes: bytes,
						Cost: cost,
					}
				}
			}

			// Strategy C: co-partition + sort-merge join.
			cpu = cpuSortFactor * (l.OutRecords*math.Log2(math.Max(l.OutRecords, 2)) +
				r.OutRecords*math.Log2(math.Max(r.OutRecords, 2)))
			cost = base.Plus(Cost{Net: shuffle.Net, Disk: shuffle.Disk, CPU: udfCPU + cpu})
			if p := out.slot(bothKeys, cost); p != nil {
				*p = PhysPlan{
					Op: op, Tree: t, Inputs: []*PhysPlan{l, r},
					Ship: []Shipping{coShip[0], coShip[1]}, Local: LocalMergeJoin,
					Partitioned: bothKeys,
					OutRecords:  recs, OutBytes: bytes,
					Cost: cost,
				}
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

// RankAllNet enumerates all reorderings of the flow tree, physically
// optimizes each, and returns them sorted by ascending estimated cost — the
// procedure behind the paper's Figures 5–7, and the optimizer's one ranked
// entry point. memoryBudget (bytes; zero = unlimited) adds the spill-aware
// disk term for shuffled grouping and join operators; net is a measured
// transport profile: shuffle byte volumes are scaled against the reference
// network and every shuffle barrier is charged the measured round-trip
// latency, so rankings computed for a distributed deployment reflect the
// wire the job will actually cross. The zero profile prices no network.
func RankAllNet(t *Tree, est *Estimator, dop int, memoryBudget float64, net NetProfile) []RankedPlan {
	enum := NewEnumerator()
	alts := enum.Enumerate(t)
	po := NewPhysicalOptimizer(est, dop)
	po.MemoryBudget = memoryBudget
	po.Net = net
	ranked := make([]RankedPlan, 0, len(alts))
	for _, a := range alts {
		phys := po.Optimize(a)
		ranked = append(ranked, RankedPlan{Tree: a, Phys: phys, Cost: phys.Cost.Total(po.Weights), Enum: &enum.Stats})
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Cost != ranked[j].Cost {
			return ranked[i].Cost < ranked[j].Cost
		}
		return ranked[i].Tree.Key() < ranked[j].Tree.Key()
	})
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return ranked
}
