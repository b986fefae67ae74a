package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with atomic counters: Observe is
// lock-free (one atomic add for the bucket and count, a CAS loop for the
// float sum) and allocation-free, so hot paths — spill collectors, health
// sweeps — record into shared histograms directly. Bucket upper bounds are
// fixed at construction; the last bucket is implicit +Inf. All methods are
// nil-receiver safe so untraced engines skip observation with a nil check.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has one extra +Inf slot
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
}

// NewHistogram creates a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the standard exponential bucket layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the slice is hot in
	// cache, so this beats binary search at these sizes.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, JSON- and
// Prometheus-exposable. Counts has len(Bounds)+1 entries; the last is the
// +Inf bucket. Counts are per-bucket (not cumulative); the Prometheus
// writer accumulates them into `le` form.
type HistSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// land between bucket reads; totals are eventually consistent, which is
// fine for metrics exposition.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// EngineHists is the set of shared histograms an Engine observes into.
// They are owned by the scheduler (or a test) and outlive the engines that
// record into them; a nil *EngineHists or nil member disables that
// observation.
type EngineHists struct {
	// ShipSeconds observes each operator's input-shipping wall time, for
	// operators that actually shipped bytes.
	ShipSeconds *Histogram
	// SpillRunBytes observes the byte size of every sorted run written by
	// a budget-overflowing collector.
	SpillRunBytes *Histogram
}
