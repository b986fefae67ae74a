package jobs

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// This file makes job documents of the paper's workloads from their one
// definition (internal/workloads) and rows from their generators, at
// whatever size a test asks for: the ingest path is held to the shapes the
// end-to-end benchmark submits.

// workloadDoc is def with the rows gen lays out on def's flow, each
// projected onto its source's own attribute order.
func workloadDoc(tb testing.TB, name string, def *workloads.Def, gen func(*dataflow.Flow) map[string]record.DataSet) *ScriptJob {
	tb.Helper()
	f, err := def.Build(workloads.ModeSCA, nil)
	if err != nil {
		tb.Fatal(err)
	}
	data := gen(f)
	rows := make(map[string][]Row, len(def.Flow.Sources))
	for _, src := range def.Flow.Sources {
		idx := make([]int, len(src.Attrs))
		for i, a := range src.Attrs {
			idx[i] = f.Attr(a)
		}
		rows[src.Name] = make([]Row, len(data[src.Name]))
		for r, rec := range data[src.Name] {
			rows[src.Name][r] = EncodeRow(rec.Project(idx))
		}
	}
	return &ScriptJob{Name: name, Script: def.Script, Flow: def.Flow, Data: rows}
}

func mustMarshal(tb testing.TB, doc *ScriptJob) []byte {
	tb.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// q7Doc is TPC-H Q7 at scale factor sf. dateHi is the shipdate window's
// upper bound; varying it changes the script (and the answer) but not a
// byte of the data — the q7.coldplan shape.
func q7Doc(tb testing.TB, sf float64, dateHi int64, budget int) []byte {
	tb.Helper()
	g := &tpch.GenParams{SF: sf, Seed: 1}
	def := tpch.Q7(g)
	bound := fmt.Sprintf("d <= %d", tpch.Q7DateHi)
	if strings.Count(def.Script, bound) != 1 {
		tb.Fatalf("the Q7 script does not hold %q exactly once", bound)
	}
	def.Script = strings.Replace(def.Script, bound, fmt.Sprintf("d <= %d", dateHi), 1)
	// The benchmark's Q7 traffic declares a combiner on the final sum, so
	// its shuffle ships partial sums. The paper's Figure 2 flow has none
	// (Table 1 counts its plans without one), so it is added here.
	def.Script += fmt.Sprintf(`
reduce partialVolume(g) {
	first := g.at(0)
	out := copy(first)
	out[%[1]d] = sum(g, %[1]d)
	emit out
}
`, workloads.Layout(&def.Flow)["l_revenue"])
	def.Flow.Ops[len(def.Flow.Ops)-1].Combiner = "partialVolume"
	doc := workloadDoc(tb, "q7", def, g.Generate)
	doc.MemoryBudgetBytes = budget
	return mustMarshal(tb, doc)
}

// clicksDoc is the clickstream task: two session Reduces and two Matches
// (the optimizer picks merge joins, which sort their inputs in place).
func clicksDoc(tb testing.TB, sessions, users int) []byte {
	tb.Helper()
	g := &clickstream.GenParams{Sessions: sessions, ClicksPerSess: 12, BuyRate: 0.10, LoginRate: 0.30, Users: users, Seed: 1}
	return mustMarshal(tb, workloadDoc(tb, "clicks", clickstream.Def(g), g.Generate))
}

// textmineDoc is the Map-only text-mining pipeline over docs documents.
func textmineDoc(tb testing.TB, docs int) []byte {
	tb.Helper()
	g := textmine.DefaultGen()
	g.Docs, g.Seed = docs, 1
	return mustMarshal(tb, workloadDoc(tb, "textmine", textmine.Def(g), g.Generate))
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
			spec, err := ParseScriptJob(mustMarshal(t, &doc))
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
