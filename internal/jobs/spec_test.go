package jobs

import (
	"context"
	"strings"
	"testing"

	"blackboxflow/internal/record"
)

const wordcountDoc = `{
  "name": "wordcount",
  "script": "reduce count(g) { first := g.at(0) out := copy(first) out[1] = count(g, 0) emit out }",
  "flow": {
    "sources": [{"name": "words", "attrs": ["word", "n"]}],
    "ops": [
      {"kind": "reduce", "udf": "count", "inputs": ["words"], "keys": [["word"]], "key_cardinality": 3}
    ],
    "sink": "count"
  },
  "data": {
    "words": [["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]
  }
}`

// TestParseScriptJobEndToEnd parses, submits, and runs a JSON job document.
func TestParseScriptJobEndToEnd(t *testing.T) {
	spec, err := ParseScriptJob([]byte(wordcountDoc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "wordcount" {
		t.Errorf("name = %q", spec.Name)
	}
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUDFCalls() == 0 {
		t.Error("no UDF calls recorded")
	}
	got := map[string]int64{}
	for _, rec := range out {
		got[rec.Field(0).AsString()] = rec.Field(1).AsInt()
	}
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d (full: %v)", w, got[w], n, got)
		}
	}
}

const joinDoc = `{
  "script": "binary pair(l, r) { out := concat(l, r) emit out }",
  "flow": {
    "sources": [
      {"name": "L", "attrs": ["lk", "lv"]},
      {"name": "R", "attrs": ["rk", "rv"]}
    ],
    "ops": [
      {"kind": "match", "udf": "pair", "inputs": ["L", "R"], "keys": [["lk"], ["rk"]], "key_cardinality": 2}
    ],
    "sink": "pair"
  },
  "data": {
    "L": [[1, 10], [2, 20]],
    "R": [[2, 200], [3, 300]]
  }
}`

// TestParseScriptJobJoinRemap checks that per-source rows are remapped onto
// the flow's global attribute space (R's fields land at indices 2,3 without
// the submitter padding anything).
func TestParseScriptJobJoinRemap(t *testing.T) {
	spec, err := ParseScriptJob([]byte(joinDoc))
	if err != nil {
		t.Fatal(err)
	}
	rds := spec.Sources["R"]
	if len(rds) != 2 {
		t.Fatalf("R has %d records", len(rds))
	}
	if got := rds[0].Field(2).AsInt(); got != 2 {
		t.Errorf("R row 0 global field 2 = %d, want 2", got)
	}
	if !rds[0].Field(0).IsNull() {
		t.Error("R row 0 field 0 should be null padding")
	}

	s := New(Config{MaxConcurrent: 1, DOP: 2})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("join emitted %d records, want 1: %v", len(out), out)
	}
	r := out[0]
	if r.Field(0).AsInt() != 2 || r.Field(1).AsInt() != 20 || r.Field(2).AsInt() != 2 || r.Field(3).AsInt() != 200 {
		t.Errorf("join output = %v", r)
	}
}

// TestFloatModuloByFractionFailsJob: `% 0.5` truncates the divisor to zero.
// That used to panic a worker goroutine and take the process down; it fails
// the one job, attributed to its operator, and the scheduler runs the next.
func TestFloatModuloByFractionFailsJob(t *testing.T) {
	const doc = `{
  "script": "map half(ir) { out := copy(ir) out[1] = ir[0] % 0.5 emit out }",
  "flow": {
    "sources": [{"name": "xs", "attrs": ["x", "y"]}],
    "ops": [{"kind": "map", "name": "halve", "udf": "half", "inputs": ["xs"]}],
    "sink": "halve"
  },
  "data": {"xs": [[3.5, null], [1.25, null]]}
}`
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	for _, tc := range []struct{ doc, wantErr string }{
		{doc, "engine: halve: tac: half instr 2: float modulo by zero"},
		{wordcountDoc, ""},
	} {
		spec, err := s.ParseScriptJob([]byte(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = j.Wait(context.Background())
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
			t.Fatalf("job error %v, want %q", err, tc.wantErr)
		}
	}
}

// TestParseScriptJobErrors: malformed documents (badDocs, ingest_test.go)
// fail with diagnostics, not panics.
func TestParseScriptJobErrors(t *testing.T) {
	for _, tc := range badDocs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScriptJob([]byte(tc.doc))
			if err == nil {
				t.Fatalf("no error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseScriptJobRejectsWhatUsedToSlipThrough pins three bugfixes of the
// ingest path: bytes after the document (a second document, stray text)
// used to be ignored because only the first JSON value was ever read, and
// data for an undeclared source or the same source twice was silently
// dropped or last-wins.
func TestParseScriptJobRejectsWhatUsedToSlipThrough(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"second document", wordcountDoc + `{"script": "evil"}`, "jobs: bad job document: invalid character '{'"},
		{"trailing text", wordcountDoc + " trailing", "jobs: bad job document: invalid character 't'"},
		{"undeclared source", strings.Replace(joinDoc, `"R": [[2, 200], [3, 300]]`, `"Q": [[2, 200]]`, 1), `jobs: data names no declared source "Q"`},
		{"source twice", strings.Replace(joinDoc, `"R": [[2, 200], [3, 300]]`, `"R": [[2, 200]], "R": [[3, 300]]`, 1), `jobs: source "R" is given twice`},
		{"data twice", strings.Replace(joinDoc, `"data"`, `"data": null, "data"`, 1), `jobs: bad job document: duplicate key "data"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for label, parse := range map[string]func([]byte) (Spec, error){
				"no cache": ParseScriptJob,
				"cached":   New(Config{MaxConcurrent: 1}).ParseScriptJob,
			} {
				if _, err := parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %v, want %q", label, err, tc.want)
				}
			}
		})
	}
	// Whitespace after the document is still fine.
	if _, err := ParseScriptJob([]byte(wordcountDoc + "\n \t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestDecodeEncodeRows: number typing and round-tripping.
func TestDecodeEncodeRows(t *testing.T) {
	spec, err := ParseScriptJob([]byte(`{
	  "script": "map id(ir) { emit ir }",
	  "flow": {"sources": [{"name":"s","attrs":["a","b","c","d","e"]}],
	           "ops": [{"kind":"map","udf":"id","inputs":["s"]}], "sink": "id"},
	  "data": {"s": [[1, 2.5, "x", true, null], [-9007199254740993, 1e3, "", false, null]]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Sources["s"]
	if k := ds[0].Field(0).Kind(); k != record.KindInt {
		t.Errorf("field 0 kind = %v, want int", k)
	}
	if k := ds[0].Field(1).Kind(); k != record.KindFloat {
		t.Errorf("field 1 kind = %v, want float", k)
	}
	if k := ds[1].Field(1).Kind(); k != record.KindFloat {
		t.Errorf("1e3 kind = %v, want float", k)
	}
	if got := ds[1].Field(0).AsInt(); got != -9007199254740993 {
		t.Errorf("large int decoded as %d", got)
	}

	rows := EncodeRows(ds)
	if rows[0][2] != "x" || rows[0][3] != true || rows[0][4] != nil {
		t.Errorf("encoded row 0 = %v", rows[0])
	}
	if rows[0][0] != int64(1) {
		t.Errorf("encoded int = %#v", rows[0][0])
	}
}
