package optimizer

import (
	"math"

	"blackboxflow/internal/dataflow"
)

// Cost is the paper's three-component cost model (Section 7.1): "a
// combination of network IO, disk IO, and CPU costs of UDF calls".
type Cost struct {
	Net  float64 // bytes shipped across the network
	Disk float64 // bytes scanned from storage
	CPU  float64 // weighted UDF invocations and operator work
}

// Plus adds two costs.
func (c Cost) Plus(o Cost) Cost {
	return Cost{c.Net + o.Net, c.Disk + o.Disk, c.CPU + o.CPU}
}

// Weights convert the cost components into a single scalar.
type Weights struct {
	Net, Disk, CPU float64
}

// DefaultWeights weight network transfer and CPU work comparably (one CPU
// work unit ≈ one byte shipped), with storage scans cheaper — matching the
// 1 GbE cluster of the paper's evaluation, where shuffles dominate
// relational plans and UDF CPU dominates the text-mining plans.
var DefaultWeights = Weights{Net: 1.0, Disk: 0.3, CPU: 1.0}

// ReferenceNetBytesPerSec is the network the DefaultWeights are calibrated
// against: the 1 GbE cluster of the paper's evaluation (~125 MB/s). A
// measured transport's Net term is scaled relative to this reference, so a
// slower network inflates shuffle costs and a faster one deflates them
// while the Disk and CPU components keep their meaning.
const ReferenceNetBytesPerSec = 125e6

// NetProfile is the measured shape of the transport a plan will execute
// on — a transport.Calibration mapped into cost-model units. The zero
// profile means "unmeasured": the Net term stays raw shipped bytes,
// exactly the pre-transport behavior.
type NetProfile struct {
	// BytesPerSec is the measured shuffle bandwidth; <= 0 leaves byte
	// costs unscaled.
	BytesPerSec float64
	// LatencySec is the measured round-trip time charged once per shuffle
	// barrier a plan performs (a forward ship has none).
	LatencySec float64
}

// IsZero reports whether the profile carries no measurement.
func (p NetProfile) IsZero() bool { return p.BytesPerSec <= 0 && p.LatencySec <= 0 }

// cost converts raw shipped bytes plus a number of shuffle barriers into
// the model's Net unit ("reference-network bytes"): bytes are scaled by
// how much slower than the reference the measured link is, and each
// barrier is charged the bytes the reference network would move during one
// measured round trip.
func (p NetProfile) cost(bytes float64, shuffles int) float64 {
	if p.IsZero() {
		return bytes
	}
	cost := bytes
	if p.BytesPerSec > 0 {
		cost = bytes * ReferenceNetBytesPerSec / p.BytesPerSec
	}
	return cost + float64(shuffles)*p.LatencySec*ReferenceNetBytesPerSec
}

// Total folds a cost into a scalar with the given weights.
func (c Cost) Total(w Weights) float64 {
	return w.Net*c.Net + w.Disk*c.Disk + w.CPU*c.CPU
}

// Estimator derives cardinality and byte-size estimates for operator trees
// from the hints attached to the flow's operators (the paper's "Average
// Number of Records Emitted per UDF Call", "CPU Cost per UDF Call", and
// "Number of Distinct Values per Key-Set").
type Estimator struct {
	attrWidth []float64 // by attribute index; 0 = no source hint

	// Estimates are cached by node identity: within one enumeration every
	// distinct sub-flow is one node (see subflows), so each is estimated
	// once however many alternatives contain it.
	recs  map[*Tree]float64
	width map[*Tree]float64
}

// defaultAttrWidth is assumed for attributes created by UDFs (no source
// hint available): an encoded numeric field.
const defaultAttrWidth = 9

// NewEstimator prepares an estimator for the given flow: per-attribute
// widths are apportioned from the source width hints.
func NewEstimator(f *dataflow.Flow) *Estimator {
	e := &Estimator{
		attrWidth: make([]float64, f.NumAttrs()),
		recs:      map[*Tree]float64{},
		width:     map[*Tree]float64{},
	}
	for _, op := range f.Operators() {
		if op.Kind != dataflow.KindSource || op.SourceAttrs.Len() == 0 {
			continue
		}
		per := op.Hints.AvgWidthBytes / float64(op.SourceAttrs.Len())
		if per <= 0 {
			per = defaultAttrWidth
		}
		for a := range op.SourceAttrs.All() {
			e.attrWidth[a] = per
		}
	}
	return e
}

// Records estimates the output cardinality of a tree.
func (e *Estimator) Records(t *Tree) float64 {
	if v, ok := e.recs[t]; ok {
		return v
	}
	v := e.computeRecords(t)
	if v < 0 {
		v = 0
	}
	e.recs[t] = v
	return v
}

func (e *Estimator) computeRecords(t *Tree) float64 {
	op := t.Op
	sel := op.Hints.Selectivity
	switch op.Kind {
	case dataflow.KindSource:
		return op.Hints.Records
	case dataflow.KindSink:
		return e.Records(t.Kids[0])
	case dataflow.KindMap:
		in := e.Records(t.Kids[0])
		if sel <= 0 {
			sel = defaultUDFSelectivity(op)
		}
		return in * sel
	case dataflow.KindReduce:
		in := e.Records(t.Kids[0])
		groups := in
		if kc := op.Hints.KeyCardinality; kc > 0 {
			groups = math.Min(kc, in)
		}
		if sel <= 0 {
			sel = 1
		}
		return groups * sel
	case dataflow.KindMatch:
		l, r := e.Records(t.Kids[0]), e.Records(t.Kids[1])
		if sel <= 0 {
			sel = 1
		}
		switch op.FKSide {
		case dataflow.FKLeft:
			return l * sel
		case dataflow.FKRight:
			return r * sel
		}
		kc := op.Hints.KeyCardinality
		if kc <= 0 {
			kc = math.Max(math.Min(l, r), 1)
		}
		return l * r / kc * sel
	case dataflow.KindCross:
		if sel <= 0 {
			sel = 1
		}
		return e.Records(t.Kids[0]) * e.Records(t.Kids[1]) * sel
	case dataflow.KindCoGroup:
		l, r := e.Records(t.Kids[0]), e.Records(t.Kids[1])
		kc := op.Hints.KeyCardinality
		if kc <= 0 {
			kc = math.Max(l, r)
		}
		if sel <= 0 {
			sel = 1
		}
		return kc * sel
	default:
		return 0
	}
}

// defaultUDFSelectivity falls back on the SCA emit bounds when no hint is
// given: an exactly-one emitter has selectivity 1; a filter defaults to
// emitting half its input.
func defaultUDFSelectivity(op *dataflow.Operator) float64 {
	if op.Effect == nil {
		return 1
	}
	if op.Effect.EmitsExactlyOne() {
		return 1
	}
	if op.Effect.EmitsAtMostOne() {
		return 0.5
	}
	return 1
}

// Width estimates the average record width (bytes) on a tree's output edge
// by summing the widths of the attributes present, in ascending attribute
// order (floating-point sums depend on order; a fixed one keeps costs
// bit-identical from run to run).
func (e *Estimator) Width(t *Tree) float64 {
	if v, ok := e.width[t]; ok {
		return v
	}
	var w float64 = 4 // record header
	for a := range t.Attrs().All() {
		if a < len(e.attrWidth) && e.attrWidth[a] > 0 {
			w += e.attrWidth[a]
		} else {
			w += defaultAttrWidth
		}
	}
	e.width[t] = w
	return w
}

// Bytes estimates the total byte volume on a tree's output edge.
func (e *Estimator) Bytes(t *Tree) float64 {
	return e.Records(t) * e.Width(t)
}

// UDFCalls estimates the number of UDF invocations the operator performs.
func (e *Estimator) UDFCalls(t *Tree) float64 {
	op := t.Op
	switch op.Kind {
	case dataflow.KindMap:
		return e.Records(t.Kids[0])
	case dataflow.KindReduce:
		in := e.Records(t.Kids[0])
		if kc := op.Hints.KeyCardinality; kc > 0 {
			return math.Min(kc, in)
		}
		return in
	case dataflow.KindMatch:
		// One call per matching pair ≈ output records / selectivity.
		sel := op.Hints.Selectivity
		if sel <= 0 {
			sel = 1
		}
		return e.Records(t) / sel
	case dataflow.KindCross:
		return e.Records(t.Kids[0]) * e.Records(t.Kids[1])
	case dataflow.KindCoGroup:
		kc := op.Hints.KeyCardinality
		if kc <= 0 {
			kc = math.Max(e.Records(t.Kids[0]), e.Records(t.Kids[1]))
		}
		return kc
	default:
		return 0
	}
}

// CPUCost estimates the CPU component of running the operator's UDF.
func (e *Estimator) CPUCost(t *Tree) float64 {
	c := t.Op.Hints.CPUCostPerCall
	if c <= 0 {
		c = 1
	}
	return e.UDFCalls(t) * c
}
