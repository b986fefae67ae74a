package jobs

import (
	"encoding/json"
	"fmt"
	"strings"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file is the declarative front door of the scheduler: a ScriptJob is
// a self-contained JSON document — PactScript UDF source, a flow
// description wiring those UDFs into a dataflow graph, inline source data,
// and per-job resource asks — that ParseScriptJob turns into a runnable
// Spec. It is what cmd/flowserve accepts over HTTP, and it is usable
// programmatically for job submission from config files or tests.

// ScriptJob is the JSON job document.
type ScriptJob struct {
	// Name labels the job; optional.
	Name string `json:"name,omitempty"`
	// Tenant attributes the job to a tenant for per-tenant admission
	// quotas; optional (empty = the shared anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// Script holds the PactScript UDF definitions (compiled with
	// internal/frontend; static analysis derives the operator effects).
	Script string `json:"script"`
	// Flow wires the compiled UDFs into a dataflow graph.
	Flow FlowDef `json:"flow"`
	// Data carries inline source data: rows of JSON scalars per source
	// name, each row holding exactly that source's attrs in declared
	// order (the compiler places them at their global record indices, so
	// submitters never pad for other sources' attributes). Numbers
	// without a fraction or exponent become ints, others floats; strings,
	// booleans, and nulls map directly.
	Data map[string][]Row `json:"data,omitempty"`
	// DOP overrides the scheduler's degree of parallelism; optional.
	DOP int `json:"dop,omitempty"`
	// MemoryBudgetBytes is the requested budget grant; zero asks for the
	// scheduler's default share.
	MemoryBudgetBytes int `json:"memory_budget_bytes,omitempty"`
	// DeadlineMillis bounds the job's run wall time; zero falls back to
	// the scheduler's default.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
}

// The flow description is dataflow's: a job document wires its UDFs the
// way the paper's workloads are stated.
type (
	FlowDef   = dataflow.FlowDef
	SourceDef = dataflow.SourceDef
	OpDef     = dataflow.OpDef
)

// Row is one record as JSON scalars.
type Row []any

// CompileScriptJob turns a job document decoded by encoding/json (with
// UseNumber) into a Spec: UDFs are compiled, the flow is built and its
// effects derived by static analysis, and inline data becomes record data
// sets. It is the entry point for Go callers that build a ScriptJob value;
// raw bytes go through ParseScriptJob, which never materializes Data and
// shares everything past row decoding with this function (assemble).
func CompileScriptJob(doc *ScriptJob) (Spec, error) {
	given := make(map[string]func(sourceLayout) (*source, error), len(doc.Data))
	for name, rows := range doc.Data {
		given[name] = func(lay sourceLayout) (*source, error) { return placeRows(lay, rows) }
	}
	return assemble(nil, doc, given)
}

// placeRows decodes a source's rows (see DecodeRows) into lay's global
// layout.
func placeRows(lay sourceLayout, rows []Row) (*source, error) {
	ds, err := DecodeRows(rows)
	if err != nil {
		return nil, fmt.Errorf("jobs: source %q: %w", lay.def.Name, err)
	}
	src := &source{rows: make(record.DataSet, len(ds)), wireSize: ds.TotalSize()}
	for i, rec := range ds {
		if len(rec) != len(lay.idx) {
			return nil, lay.widthError(i, len(rec))
		}
		src.rows[i] = make(record.Record, lay.width)
		for f, v := range rec {
			src.rows[i][lay.idx[f]] = v
		}
	}
	return src, nil
}

// BuildFlow assembles a dataflow from its declarative description and a
// compiled UDF program, then derives the operators' effects by static
// analysis. The data map (may be nil; rows in each source's own attribute
// order) only backfills missing source cardinality hints.
func BuildFlow(def *FlowDef, prog *tac.Program, data map[string]record.DataSet) (*dataflow.Flow, error) {
	hints := make(map[string]dataflow.Hints, len(def.Sources))
	for _, src := range def.Sources {
		ds := data[src.Name]
		hints[src.Name] = resolveSourceHints(src, len(ds), ds.TotalSize())
	}
	return buildFlow(def, prog, hints)
}

// buildFlow is BuildFlow with the source hints already resolved.
func buildFlow(def *FlowDef, prog *tac.Program, hints map[string]dataflow.Hints) (*dataflow.Flow, error) {
	flow, err := def.Build(prog, hints)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return flow, nil
}

// resolveSourceHints returns the cardinality hints a source is built with:
// explicit SourceDef hints win, missing ones are measured from the inline
// data — rows records of wireSize bytes in total, in the submitted
// (unpadded) layout. The plan-cache digest hashes these resolved values,
// so a data set big enough to move the hints gets its own cache entry.
func resolveSourceHints(src SourceDef, rows, wireSize int) dataflow.Hints {
	hints := dataflow.Hints{Records: src.Records, AvgWidthBytes: src.AvgWidthByte}
	if rows > 0 {
		if hints.Records == 0 {
			hints.Records = float64(rows)
		}
		if hints.AvgWidthBytes == 0 {
			hints.AvgWidthBytes = float64(wireSize) / float64(rows)
		}
	}
	return hints
}

// DecodeRows converts JSON rows (decoded with json.Number) into records.
func DecodeRows(rows []Row) (record.DataSet, error) {
	ds := make(record.DataSet, len(rows))
	for i, row := range rows {
		rec := make(record.Record, len(row))
		for c, v := range row {
			val, err := decodeValue(v)
			if err != nil {
				return nil, fmt.Errorf("row %d field %d: %w", i, c, err)
			}
			rec[c] = val
		}
		ds[i] = rec
	}
	return ds, nil
}

func decodeValue(v any) (record.Value, error) {
	switch x := v.(type) {
	case nil:
		return record.Null, nil
	case bool:
		return record.Bool(x), nil
	case string:
		return record.String(x), nil
	case json.Number:
		s := x.String()
		if !strings.ContainsAny(s, ".eE") {
			i, err := x.Int64()
			if err == nil {
				return record.Int(i), nil
			}
		}
		f, err := x.Float64()
		if err != nil {
			return record.Null, fmt.Errorf("bad number %q", s)
		}
		return record.Float(f), nil
	case float64:
		// Rows built in Go (not via UseNumber decoding).
		return record.Float(x), nil
	case int:
		return record.Int(int64(x)), nil
	case int64:
		return record.Int(x), nil
	default:
		return record.Null, fmt.Errorf("unsupported value type %T", v)
	}
}

// EncodeRow renders one record as a JSON-marshalable row (the inverse of
// DecodeRows up to number formatting).
func EncodeRow(rec record.Record) Row {
	row := make(Row, len(rec))
	for c, v := range rec {
		switch v.Kind() {
		case record.KindInt:
			row[c] = v.AsInt()
		case record.KindFloat:
			row[c] = v.AsFloat()
		case record.KindString:
			row[c] = v.AsString()
		case record.KindBool:
			row[c] = v.AsBool()
		default:
			row[c] = nil
		}
	}
	return row
}

// EncodeRows renders a data set as JSON-marshalable rows.
func EncodeRows(ds record.DataSet) []Row {
	rows := make([]Row, len(ds))
	for i, rec := range ds {
		rows[i] = EncodeRow(rec)
	}
	return rows
}
