// Package sampling implements one of the paper's stated future-work items
// (Section 9): "estimating the selectivity and execution cost of black box
// operators". The paper's prototype relies on user-provided hints; this
// package derives them empirically by running every UDF over a small sample
// of its input — runtime profiling in the spirit the paper attributes to
// Starfish (Section 8), applied per-operator.
//
// The profiler executes the flow's implemented order once over seeded
// samples of the sources — every operator on the execution engine itself
// (engine.New(1): one partition, every edge forwarded), reading what the
// engine's own OpStats counted — and measures per operator:
//
//   - Selectivity — records emitted per UDF call;
//   - CPUCostPerCall — wall time per call, in microseconds;
//   - KeyCardinality — distinct keys observed, scaled to the full input.
//
// Estimates are written into the operators' Hints (optionally preserving
// hints that are already set), after which the regular cost-based
// optimization proceeds unchanged.
package sampling

import (
	"fmt"
	"math/rand"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// Options configure the profiling run.
type Options struct {
	// SampleSize is the maximum number of records drawn per source
	// (default 1000).
	SampleSize int
	// KeepExisting preserves hints that are already non-zero.
	KeepExisting bool
	// MaxCrossPairs caps the pairs evaluated for Cross operators
	// (default 100k) so sampling stays cheap on Cartesian products.
	MaxCrossPairs int
}

func (o Options) withDefaults() Options {
	if o.SampleSize <= 0 {
		o.SampleSize = 1000
	}
	if o.MaxCrossPairs <= 0 {
		o.MaxCrossPairs = 100_000
	}
	return o
}

// Measurement is the per-operator profiling result.
type Measurement struct {
	Op          *dataflow.Operator
	Calls       int
	InRecords   int
	OutRecords  int
	Duration    time.Duration
	DistinctKey int // distinct key values observed (keyed operators)
}

// DeriveHints profiles the flow over sampled source data and fills in the
// operators' cost hints. It returns the raw measurements for inspection.
func DeriveHints(flow *dataflow.Flow, data map[string]record.DataSet, opts Options) ([]Measurement, error) {
	if err := flow.Validate(); err != nil {
		return nil, err
	}
	p := &profiler{data: data, opts: opts.withDefaults()}
	if _, _, err := p.eval(flow.Sink); err != nil {
		return nil, err
	}
	return p.measurements, nil
}

// applyHints converts a measurement into operator hints; scale (≥ 1)
// extrapolates the distinct keys seen in the sample to the full input.
func applyHints(m *Measurement, scale float64, keep bool) {
	h := &m.Op.Hints
	if m.Calls > 0 {
		sel := float64(m.OutRecords) / float64(m.Calls)
		if !keep || h.Selectivity == 0 {
			h.Selectivity = sel
		}
		cost := float64(m.Duration.Microseconds()) / float64(m.Calls)
		if cost < 0.1 {
			cost = 0.1
		}
		if !keep || h.CPUCostPerCall == 0 {
			h.CPUCostPerCall = cost
		}
	}
	if m.DistinctKey > 0 && m.Op.Kind.IsKeyed() {
		// Scale the observed distinct count linearly to the full input — a
		// deliberately simple estimator; a production system would use an
		// unbiased distinct-count estimator here.
		est := float64(m.DistinctKey) * scale
		if !keep || h.KeyCardinality == 0 {
			h.KeyCardinality = est
		}
	}
}

type profiler struct {
	data         map[string]record.DataSet
	opts         Options
	measurements []Measurement
}

// eval executes the subtree rooted at op over the sampled data, recording
// measurements and applying hints as a side effect; it returns the
// subtree's sampled output and the size of the full source data beneath it.
// Each UDF operator is one engine run of its own — the inputs' sampled
// outputs registered as sources, forwarded into the operator — because the
// profiler needs what lies between operators: the inputs to bound a Cross
// and to count a Match's keys, the output to feed the consumers.
func (p *profiler) eval(op *dataflow.Operator) (record.DataSet, int, error) {
	if op.Kind == dataflow.KindSource {
		full, ok := p.data[op.Name]
		if !ok {
			return nil, 0, fmt.Errorf("sampling: no data for source %q", op.Name)
		}
		return sample(full, p.opts.SampleSize), len(full), nil
	}
	if op.Kind == dataflow.KindSink {
		return p.eval(op.Inputs[0])
	}

	inputs := make([]record.DataSet, len(op.Inputs))
	full := 0
	for i, in := range op.Inputs {
		d, n, err := p.eval(in)
		if err != nil {
			return nil, 0, err
		}
		inputs[i] = d
		full += n
	}
	if op.Kind == dataflow.KindCross {
		// Truncate the sides so at most MaxCrossPairs pairs exist.
		limit := p.opts.MaxCrossPairs
		inputs[1] = inputs[1][:min(len(inputs[1]), limit)]
		if n := len(inputs[1]); n > 0 {
			inputs[0] = inputs[0][:min(len(inputs[0]), limit/n)]
		}
	}

	e := engine.New(1)
	plan := &optimizer.PhysPlan{Op: op}
	for i, d := range inputs {
		src := &dataflow.Operator{Name: fmt.Sprintf("input %d", i), Kind: dataflow.KindSource}
		e.AddSource(src.Name, d)
		plan.Inputs = append(plan.Inputs, &optimizer.PhysPlan{Op: src})
		plan.Ship = append(plan.Ship, optimizer.ShipForward)
	}
	out, stats, err := e.Run(plan)
	if err != nil {
		return nil, 0, fmt.Errorf("sampling: %w", err)
	}
	st := stats.PerOp[len(stats.PerOp)-1]
	m := Measurement{Op: op, Calls: st.UDFCalls, InRecords: st.InRecords, OutRecords: st.OutRecords, Duration: st.LocalTime}
	if op.Kind == dataflow.KindMatch {
		// A Match calls per pair, not per key: count the left side's keys.
		distinct := map[uint64]bool{}
		for _, l := range inputs[0] {
			distinct[l.Hash(op.Keys[0])] = true
		}
		m.DistinctKey = len(distinct)
	} else if op.Kind.IsKeyed() {
		m.DistinctKey = m.Calls // key-at-a-time: one call per distinct key
	}
	// Distinct counts are extrapolated by fullInput/sampledInput (never
	// down): the product of the sampling ratios along the operator's input
	// subtrees, approximated by the dominant source ratio.
	scale := 1.0
	if m.InRecords > 0 && full > m.InRecords {
		scale = float64(full) / float64(m.InRecords)
	}
	applyHints(&m, scale, p.opts.KeepExisting)
	p.measurements = append(p.measurements, m)
	return out, full, nil
}

// sample draws up to n records uniformly with a fixed seed: deterministic
// across runs, and — unlike strided sampling — free of aliasing with
// periodic patterns in the data.
func sample(d record.DataSet, n int) record.DataSet {
	if len(d) <= n {
		return d
	}
	rng := rand.New(rand.NewSource(1))
	out := make(record.DataSet, 0, n)
	for _, idx := range rng.Perm(len(d))[:n] {
		out = append(out, d[idx])
	}
	return out
}
