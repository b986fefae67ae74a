package jobs

import (
	"slices"
	"strings"
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/tpch"
)

// TestSourceListingAnAttributeTwice: such a source used to lose a column
// without an error (its second field overwrote the first). Every way into
// a flow refuses it, naming the source and the attribute.
func TestSourceListingAnAttributeTwice(t *testing.T) {
	raw := []byte(`{"script": "map id(ir) { emit ir }",
	  "flow": {"sources": [{"name": "s", "attrs": ["a", "a"]}], "ops": [{"kind": "map", "udf": "id", "inputs": ["s"]}], "sink": "id"},
	  "data": {"s": [[1, 10]]}}`)
	const want = `jobs: dataflow: source "s" lists attribute "a" twice`
	doc, err := decodeDoc(raw)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := frontend.Compile(doc.Script)
	if err != nil {
		t.Fatal(err)
	}
	_, parseErr := ParseScriptJob(raw)
	_, compileErr := CompileScriptJob(doc)
	_, buildErr := BuildFlow(&doc.Flow, prog, nil)
	for label, err := range map[string]error{"ParseScriptJob": parseErr, "CompileScriptJob": compileErr, "BuildFlow": buildErr} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", label, err, want)
		}
	}
}

// TestParseScriptJobErrors: malformed documents (badDocs, ingest_test.go)
// fail with diagnostics, not panics.
func TestParseScriptJobErrors(t *testing.T) { TestIngestErrorMessagesUnchanged(t) }

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

// TestDocumentFKMarks: a document's fk marks reach the optimizer. They
// license the invariant-grouping rewrite, which is all of Q15's plan space
// beyond the submitted order and all of the analysed clickstream's (Table
// 1: 3 and 3 plans); without them each document has one plan.
func TestDocumentFKMarks(t *testing.T) {
	g := &tpch.GenParams{SF: 0.05, Seed: 1}
	cg := &clickstream.GenParams{Sessions: 40, ClicksPerSess: 12, BuyRate: 0.10, LoginRate: 0.30, Users: 8, Seed: 1}
	for _, c := range []struct {
		name string
		doc  *ScriptJob
	}{
		{"q15", workloadDoc(t, "q15", tpch.Q15(g), g.Generate)},
		{"clickstream", workloadDoc(t, "clicks", clickstream.Def(cg), cg.Generate)},
	} {
		for _, marked := range []bool{true, false} {
			doc := *c.doc
			doc.Flow.Ops = slices.Clone(doc.Flow.Ops)
			want := 3
			if !marked {
				for i := range doc.Flow.Ops {
					doc.Flow.Ops[i].FK = ""
				}
				want = 1
			}
			spec, err := ParseScriptJob(marshal(&doc))
			if err != nil {
				t.Fatal(err)
			}
			ranked, err := optimizer.Plan(spec.Flow, 2, 0, optimizer.NetProfile{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked) != want {
				t.Errorf("%s with fk marks %v: %d plans, want %d", c.name, marked, len(ranked), want)
			}
		}
	}
}
