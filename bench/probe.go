package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/optimizer"
)

// probeIters is how often each probe repeats; the median is reported.
const probeIters = 20

// probes are single-threaded, in-process timings of each module's public
// entry point on the workload's first document: the baseline that splits
// the server's coarse compile span and shows what two concurrent jobs on
// two cores cost on top. Medians, in ms.
type probes struct {
	JSONDecodeMS, FrontendMS, SCAMS, RowDecodeMS float64
	OptimizeMS, EngineMS, EncodeMS               float64
	Plans                                        int
}

// runProbes times the layers on set's first document and checks the
// in-process answer against the same reference the server is held to.
func runProbes(set *docSet, iters int, spillDir string) (*probes, error) {
	// One untimed pass produces each layer's input.
	raw := set.Docs[0]
	decode := func() (*jobs.ScriptJob, error) {
		doc := &jobs.ScriptJob{}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		return doc, dec.Decode(doc)
	}
	doc, err := decode()
	if err != nil {
		return nil, err
	}
	prog, err := frontend.Compile(doc.Script)
	if err != nil {
		return nil, err
	}
	spec, err := jobs.CompileScriptJob(doc)
	if err != nil {
		return nil, err
	}
	optimize := func() ([]optimizer.RankedPlan, error) {
		tree, err := optimizer.FromFlow(spec.Flow)
		if err != nil {
			return nil, err
		}
		ranked := optimizer.RankAllNet(tree, optimizer.NewEstimator(spec.Flow), serverDOP, float64(spec.MemoryBudget), optimizer.NetProfile{})
		if len(ranked) == 0 {
			return nil, errors.New("optimizer produced no plan")
		}
		return ranked, nil
	}
	ranked, err := optimize()
	if err != nil {
		return nil, err
	}
	eng := engine.New(serverDOP)
	eng.MemoryBudget = spec.MemoryBudget
	eng.SpillDir = spillDir
	for name, ds := range spec.Sources {
		eng.AddSource(name, ds)
	}
	out, _, err := eng.RunContext(context.Background(), ranked[0].Phys)
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	encode := func() error {
		body.Reset()
		enc := json.NewEncoder(&body)
		enc.SetIndent("", "  ") // as the server writes results
		return enc.Encode(map[string]any{"id": 1, "rows": jobs.EncodeRows(out)})
	}

	p := &probes{Plans: len(ranked)}
	for _, step := range []struct {
		name string
		ms   *float64
		call func() error
	}{
		{"json decode", &p.JSONDecodeMS, func() error { _, err := decode(); return err }},
		{"frontend", &p.FrontendMS, func() error { _, err := frontend.Compile(doc.Script); return err }},
		// BuildFlow wires the operators and derives their effects by static
		// code analysis; without data it does nothing else.
		{"sca", &p.SCAMS, func() error { _, err := jobs.BuildFlow(&doc.Flow, prog, nil); return err }},
		{"row decode", &p.RowDecodeMS, func() error {
			for _, rows := range doc.Data {
				if _, err := jobs.DecodeRows(rows); err != nil {
					return err
				}
			}
			return nil
		}},
		{"optimize", &p.OptimizeMS, func() error { _, err := optimize(); return err }},
		{"engine", &p.EngineMS, func() error { _, _, err := eng.RunContext(context.Background(), ranked[0].Phys); return err }},
		{"encode", &p.EncodeMS, encode},
	} {
		ms := make([]float64, iters)
		for i := range ms {
			start := time.Now()
			if err := step.call(); err != nil {
				return nil, fmt.Errorf("probe %s: %w", step.name, err)
			}
			ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
		}
		*step.ms = median(ms)
	}

	var answer reply
	if err := json.Unmarshal(body.Bytes(), &answer); err != nil {
		return nil, err
	}
	if err := set.Want[0].check(answer.Rows, true); err != nil {
		return nil, fmt.Errorf("in-process engine: wrong answer: %w", err)
	}
	return p, nil
}
