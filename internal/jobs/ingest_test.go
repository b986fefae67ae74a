package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/tpch"
)

// This file pins the ingest path (ingest.go) to the one it replaced.
// refParse is that path, frozen here: encoding/json into ScriptJob ([]any
// rows, json.Number), DecodeRows, BuildFlow, a remap pass, and the flow
// digest over the hints BuildFlow resolved. The differential fuzz holds
// ParseScriptJob — cold, replayed, and with no cache at all — and
// CompileScriptJob to its results on arbitrary bytes.

// decodeDoc is how a document used to be read: the first JSON value, rows
// as []any of json.Number.
func decodeDoc(raw []byte) (*ScriptJob, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	doc := &ScriptJob{}
	if err := dec.Decode(doc); err != nil {
		return nil, fmt.Errorf("jobs: bad job document: %w", err)
	}
	return doc, nil
}

// refParse is the pre-ingest Scheduler.ParseScriptJob.
func refParse(raw []byte) (Spec, error) {
	doc, err := decodeDoc(raw)
	if err != nil {
		return Spec{}, err
	}
	spec, err := refCompileScriptJob(doc)
	if err != nil {
		return Spec{}, err
	}
	spec.PlanKey = scriptJobHash(doc, sourceHints(spec.Flow))
	return spec, nil
}

// refCompileScriptJob is CompileScriptJob as it was before assemble: rows
// are decoded in their own attribute order, the flow is built, and a second
// pass copies every row to its global position.
func refCompileScriptJob(doc *ScriptJob) (Spec, error) {
	if strings.TrimSpace(doc.Script) == "" {
		return Spec{}, fmt.Errorf("jobs: job document has no script")
	}
	prog, err := frontend.Compile(doc.Script)
	if err != nil {
		return Spec{}, fmt.Errorf("jobs: compile script: %w", err)
	}

	sources := make(map[string]record.DataSet, len(doc.Data))
	for name, rows := range doc.Data {
		ds, err := DecodeRows(rows)
		if err != nil {
			return Spec{}, fmt.Errorf("jobs: source %q: %w", name, err)
		}
		sources[name] = ds
	}

	flow, err := BuildFlow(&doc.Flow, prog, sources)
	if err != nil {
		return Spec{}, err
	}

	// Records live in the flow's global attribute space: a source's fields
	// sit at the global indices its attrs were declared at, null-padded
	// elsewhere. Submitters provide rows in the source's own attr order;
	// remap them here.
	for _, src := range doc.Flow.Sources {
		ds, ok := sources[src.Name]
		if !ok {
			continue
		}
		remapped, err := refRemapToGlobal(flow, src, ds)
		if err != nil {
			return Spec{}, err
		}
		sources[src.Name] = remapped
	}
	return Spec{
		Name:         doc.Name,
		Tenant:       doc.Tenant,
		Flow:         flow,
		Sources:      sources,
		DOP:          doc.DOP,
		MemoryBudget: doc.MemoryBudgetBytes,
		Deadline:     time.Duration(doc.DeadlineMillis) * time.Millisecond,
	}, nil
}

// remapToGlobal places a source's natural-order rows at their global
// attribute indices (see ScriptJob.Data). Only CompileScriptJob needs it:
// ParseScriptJob decodes rows in place (sourceLayout).
func refRemapToGlobal(flow *dataflow.Flow, src SourceDef, ds record.DataSet) (record.DataSet, error) {
	idx := make([]int, len(src.Attrs))
	width := 0
	for i, a := range src.Attrs {
		gi, ok := flow.AttrIndex(a)
		if !ok {
			return nil, fmt.Errorf("jobs: source %q attr %q not declared", src.Name, a)
		}
		idx[i] = gi
		if gi+1 > width {
			width = gi + 1
		}
	}
	out := make(record.DataSet, len(ds))
	for r, rec := range ds {
		if len(rec) != len(src.Attrs) {
			return nil, fmt.Errorf("jobs: source %q row %d has %d fields, want %d (%v)",
				src.Name, r, len(rec), len(src.Attrs), src.Attrs)
		}
		g := make(record.Record, width)
		for i, v := range rec {
			g[idx[i]] = v
		}
		out[r] = g
	}
	return out, nil
}

// sourceHints reads back the hints a flow's sources were built with.
func sourceHints(f *dataflow.Flow) map[string]dataflow.Hints {
	hints := map[string]dataflow.Hints{}
	for _, op := range f.Operators() {
		if op.Kind == dataflow.KindSource {
			hints[op.Name] = op.Hints
		}
	}
	return hints
}

// stricter lists the documents ingest rejects although the reference took
// them: each is a deliberate bugfix of this path, not a divergence.
var stricter = []string{
	"want end of input",        // bytes after the document
	`duplicate key`,            // the data member given twice
	"names no declared source", // data for a source the flow does not declare
	"is given twice",           // one source given twice (last one used to win)
}

// sourcesDiff describes the first difference between two sets of sources,
// or returns "" if they hold the same records: same names, same record
// counts and widths, and fields of the same kind that are Equal. It does not
// use reflect.DeepEqual, which follows a record.Value's string pointer to
// the string's first byte only.
func sourcesDiff(got, want map[string]record.DataSet) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d sources, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Sprintf("source %q missing", name)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("source %q has %d records, want %d", name, len(g), len(w))
		}
		for i := range w {
			if len(g[i]) != len(w[i]) {
				return fmt.Sprintf("source %q record %d has width %d, want %d", name, i, len(g[i]), len(w[i]))
			}
			for f := range w[i] {
				if g[i][f].Kind() != w[i][f].Kind() || !g[i][f].Equal(w[i][f]) {
					return fmt.Sprintf("source %q record %d field %d is %v %v, want %v %v",
						name, i, f, g[i][f].Kind(), g[i][f], w[i][f].Kind(), w[i][f])
				}
			}
		}
	}
	return ""
}

// TestSourcesDiffSeesWholeStrings: two sources whose strings differ only
// past their first byte differ.
func TestSourcesDiffSeesWholeStrings(t *testing.T) {
	a := map[string]record.DataSet{"s": {{record.Int(1), record.String("ab")}}}
	b := map[string]record.DataSet{"s": {{record.Int(1), record.String("ac")}}}
	if diff := sourcesDiff(a, b); diff == "" {
		t.Fatal(`sourcesDiff finds no difference between "ab" and "ac"`)
	}
	if diff := sourcesDiff(a, a); diff != "" {
		t.Fatalf("sourcesDiff finds a difference between a source and itself: %s", diff)
	}
}

// checkAgainstReference holds one ingest result to the reference's.
func checkAgainstReference(t *testing.T, label string, got Spec, gotErr error, want Spec, wantErr error, cached bool) {
	t.Helper()
	if wantErr != nil {
		if gotErr == nil {
			t.Fatalf("%s: accepted a document the reference rejects with %q", label, wantErr)
		}
		return
	}
	if gotErr != nil {
		for _, s := range stricter {
			if strings.Contains(gotErr.Error(), s) {
				return
			}
		}
		t.Fatalf("%s: rejected a document the reference accepts: %v", label, gotErr)
	}
	if diff := sourcesDiff(got.Sources, want.Sources); diff != "" {
		t.Fatalf("%s: sources differ: %s", label, diff)
	}
	if gh, wh := sourceHints(got.Flow), sourceHints(want.Flow); !reflect.DeepEqual(gh, wh) {
		t.Fatalf("%s: hints differ: got %v, want %v", label, gh, wh)
	}
	if cached && got.PlanKey != want.PlanKey {
		t.Fatalf("%s: PlanKey %s, want %s", label, got.PlanKey, want.PlanKey)
	}
	if got.Name != want.Name || got.Tenant != want.Tenant || got.DOP != want.DOP ||
		got.MemoryBudget != want.MemoryBudget || got.Deadline != want.Deadline {
		t.Fatalf("%s: envelope differs: got %+v, want %+v", label, got, want)
	}
}

// ingestSeeds are the fuzz corpus: the benchmark's five workload shapes at
// toy size and the hand cases the decoder could get wrong.
func ingestSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{
		q7Doc(tb, 0.05, tpch.Q7DateHi, 0),       // q7.warm
		q7Doc(tb, 0.05, tpch.Q7DateHi, 256<<10), // q7.spill
		q7Doc(tb, 0.02, tpch.Q7DateHi+3, 0),     // q7.coldplan, one variant
		clicksDoc(tb, 40, 8),
		textmineDoc(tb, 12),
		[]byte(wordcountDoc), []byte(joinDoc), nil, []byte(wordcountDoc[:len(wordcountDoc)/2]),
	}
	doc := func(attrs, rows string) []byte {
		return []byte(`{"script": "map id(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":[` + attrs +
			`]}], "ops": [{"kind":"map","udf":"id","inputs":["s"]}], "sink": "id"}, "data": {"s": ` + rows + `}}`)
	}
	for _, rows := range []string{
		`[["éA", "😀", "\ud83d", "a\"b\\c\/d\b\f\n\r\t"]]`,     // escapes, a surrogate pair, a lone surrogate
		"[[\"\xff\xfe\", \"caf\xc3\xa9\", \"\x01\", \"ok\"]]", // invalid UTF-8, valid UTF-8, a control byte
		`[[-0, 1e400, 1.0, 1]]`, `[[-0, -0.0, 1.0, 1]]`, `[[0, 1E2, 1e-2, 2.5e+3]]`,
		`[[9223372036854775807, -9223372036854775808, 9223372036854775808, 12345678901234567890]]`,
		`[[01, 1, 1, 1]]`, `[[1., 1, 1, 1]]`, `[[.5, 1, 1, 1]]`, `[[+1, 1, 1, 1]]`, `[[-, 1, 1, 1]]`, `[[1e, 1, 1, 1]]`,
		`[[[1], 1, 1, 1]]`, `[[{"a": 1}, 1, 1, 1]]`, `[[1, 2, 3, [[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]`,
		`[[1, 2, 3, 4], [1, 2, 3]]`, `[[1, 2, 3, 4, 5]]`, `[[]]`, `[null]`, `[]`, `null`, `{}`, `7`, `[7]`, `["row"]`,
		`[[true, false, null, "x"]]`, `[[tru, 1, 1, 1]]`, `[[nul, 1, 1, 1]]`, `[[nullx, 1, 1, 1]]`,
		`[[1, 2, 3, 4],]`, `[[1, 2, 3, 4,]]`, `[[1 2 3 4]]`, `[[1, 2, 3, 4]`, `[[1, 2, 3, "4]]`, ` [ [ 1 ,2 ,3, 4 ] ] `,
	} {
		seeds = append(seeds, doc(`"a","b","c","d"`, rows))
	}
	seeds = append(seeds,
		doc(`"a","a"`, `[[1, 2]]`), // one attribute twice: rejected
		[]byte(`{"script": "map id(ir) { emit ir }", "data": {"s": [[1]]}, "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"id","inputs":["s"]}], "sink": "id"}}`), // data before flow
		[]byte(strings.Replace(joinDoc, `"R": [[2, 200], [3, 300]]`, `"R": [[2, 200]], "R": [[3, 300]]`, 1)),                                                                                     // duplicate source
		[]byte(strings.Replace(joinDoc, `"R": [[2, 200], [3, 300]]`, `"X": [[2, 200]]`, 1)),                                                                                                      // undeclared source
		[]byte(strings.Replace(joinDoc, `"data"`, `"DATA"`, 1)), []byte(strings.Replace(joinDoc, `"data"`, `"data"`, 1)),
		[]byte(strings.Replace(joinDoc, `"data"`, `"data": null, "data"`, 1)),
		[]byte(strings.Replace(joinDoc, `"script"`, `"script": "", "script"`, 1)),     // duplicate envelope key: last wins
		[]byte(strings.Replace(joinDoc, `"lk", "lv"`, `"lk", "lv"], "bogus": [1`, 1)), // unknown nested field
		[]byte(wordcountDoc+` {"script": "evil"}`), []byte(wordcountDoc+` trailing`), []byte(wordcountDoc+"\n\t "),
		[]byte(`null`), []byte(`[]`), []byte(`{"data": 5}`), []byte(strings.Repeat("[", 20000)),
		[]byte(`{"script": "map id(ir) { emit ir }", "flow": `+strings.Repeat(`{"attrs": `, 11000)),
	)
	for _, tc := range badDocs {
		seeds = append(seeds, []byte(tc.doc))
	}
	return seeds
}

// FuzzIngest is the differential: on any bytes the ingest path and the
// reference either both fail or agree on sources, hints, PlanKey and
// envelope — on a cold cache, on a warm one (the second sighting, which
// takes the document memo's copy), on the replay of the same bytes, and
// with no cache — except where ingest is deliberately stricter.
func FuzzIngest(f *testing.F) {
	for _, seed := range ingestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(ingestMatchesReference)
}

// ingestMatchesReference is FuzzIngest's property on one input.
func ingestMatchesReference(t *testing.T, raw []byte) {
	want, wantErr := refParse(raw)
	c := newPlanCache(16)
	got, err := ingest(c, raw)
	checkAgainstReference(t, "cold cache", got, err, want, wantErr, true)
	again, againErr := ingest(c, raw)
	checkAgainstReference(t, "warm cache", again, againErr, want, wantErr, true)
	replay, replayErr := ingest(c, raw)
	checkAgainstReference(t, "replay", replay, replayErr, want, wantErr, true)
	if err == nil && (replay.Flow != got.Flow || !strings.Contains(replay.Compile.Detail, "doc=hit")) {
		t.Fatalf("third ingest of the same bytes was not a replay: %s", replay.Compile.Detail)
	}
	got, err = ParseScriptJob(raw)
	checkAgainstReference(t, "no cache", got, err, want, wantErr, false)
	if doc, docErr := decodeDoc(raw); docErr == nil {
		got, err = CompileScriptJob(doc)
		checkAgainstReference(t, "CompileScriptJob", got, err, want, wantErr, false)
	}
}

// badDocs are malformed documents and what their diagnostics must mention.
var badDocs = []struct {
	name, doc, want string
}{
	{"bad json", `{`, "bad job document"},
	{"unknown field", `{"script": "map f(ir) { emit ir }", "flowz": {}}`, "unknown field"},
	{"no script", `{"script": "  ", "flow": {"sources": [], "ops": [], "sink": "x"}}`, "no script"},
	{"script error", `{"script": "map f(ir) { emit }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [], "sink": "s"}}`, "compile script"},
	{"no sources", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [], "ops": [], "sink": "f"}}`, "no sources"},
	{"unknown udf", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"g","inputs":["s"]}], "sink": "g"}}`, `no UDF "g"`},
	{"unknown kind", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"filter","udf":"f","inputs":["s"]}], "sink": "f"}}`, "unknown kind"},
	{"bad input", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"f","inputs":["nope"]}], "sink": "f"}}`, "undefined input"},
	{"arity", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"f","inputs":["s","s"]}], "sink": "f"}}`, "needs 1 input"},
	{"missing keys", `{"script": "reduce f(g) { out := g.at(0) emit out }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"reduce","udf":"f","inputs":["s"]}], "sink": "f"}}`, "needs key attrs"},
	{"undeclared key", `{"script": "reduce f(g) { out := g.at(0) emit out }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"reduce","udf":"f","inputs":["s"],"keys":[["zz"]]}], "sink": "f"}}`, "undeclared attribute"},
	{"bad sink", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"f","inputs":["s"]}], "sink": "nope"}}`, "sink"},
	{"dup name", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]},{"name":"s","attrs":["b"]}], "ops": [], "sink": "s"}}`, "duplicate"},
	{"row width", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a","b"]}], "ops": [{"kind":"map","udf":"f","inputs":["s"]}], "sink": "f"}, "data": {"s": [[1]]}}`, "has 1 fields"},
	{"bad number", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a","b"]}], "ops": [{"kind":"map","udf":"f","inputs":["s"]}], "sink": "f"}, "data": {"s": [[1, 2], [3, 1e400]]}}`, `row 1 field 1: bad number "1e400"`},
	{"field index out of range", `{"script": "map f(ir) {\n\ta := ir[70000]\n\temit ir\n}", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"f","inputs":["s"]}], "sink": "f"}}`, "(f): line 2: field index 70000 out of range"},
	{"unequal key arity", strings.Replace(joinDoc, `[["lk"], ["rk"]]`, `[["lk", "lv"], ["rk"]]`, 1), "keys 2 attributes of input 0 against 1 of input 1"},
	{"keys on a map", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"map","udf":"f","inputs":["s"],"keys":[["a"]]}], "sink": "f"}}`, "(map) has 1 key lists, takes 0"},
	{"keys on a cross", strings.Replace(joinDoc, `"match"`, `"cross"`, 1), "(cross) has 2 key lists, takes 0"},
	{"key list beyond the inputs", `{"script": "reduce f(g) { out := g.at(0) emit out }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"reduce","udf":"f","inputs":["s"],"keys":[["a"],["a"]]}], "sink": "f"}}`, "(reduce) has 2 key lists, takes 1"},
	{"fk off a match", `{"script": "reduce f(g) { out := g.at(0) emit out }", "flow": {"sources": [{"name":"s","attrs":["a"]}], "ops": [{"kind":"reduce","udf":"f","inputs":["s"],"keys":[["a"]],"fk":"left"}], "sink": "f"}}`, `(reduce) has fk "left"`},
	{"fk value", strings.Replace(joinDoc, `"keys": [["lk"], ["rk"]]`, `"keys": [["lk"], ["rk"]], "fk": "both"`, 1), `(match) has fk "both"`},
	{"nested row value", `{"script": "map f(ir) { emit ir }", "flow": {"sources": [{"name":"s","attrs":["a","b"]}], "ops": [{"kind":"map","udf":"f","inputs":["s"]}], "sink": "f"}, "data": {"s": [[1, [2]]]}}`, "row 0 field 1: unsupported value type"},
}

// TestIngestErrorMessagesUnchanged: every diagnostic the replaced path
// produced for the malformed documents above comes out of ingest verbatim,
// cached or not, and mentions what badDocs says it must.
func TestIngestErrorMessagesUnchanged(t *testing.T) {
	for _, tc := range badDocs {
		t.Run(tc.name, func(t *testing.T) {
			_, want := refParse([]byte(tc.doc))
			if want == nil || !strings.Contains(want.Error(), tc.want) {
				t.Fatalf("the reference says %v, which does not mention %q", want, tc.want)
			}
			for label, parse := range map[string]func([]byte) (Spec, error){
				"no cache": ParseScriptJob,
				"cached":   New(Config{MaxConcurrent: 1}).ParseScriptJob,
			} {
				if _, err := parse([]byte(tc.doc)); err == nil || err.Error() != want.Error() {
					t.Errorf("%s: error %q, the reference says %q", label, err, want)
				}
			}
		})
	}
}

// TestIngestSeedsMatchReference runs the fuzz property over the corpus.
func TestIngestSeedsMatchReference(t *testing.T) {
	for i, raw := range ingestSeeds(t) {
		t.Run(fmt.Sprint("seed", i), func(t *testing.T) { ingestMatchesReference(t, raw) })
	}
}
