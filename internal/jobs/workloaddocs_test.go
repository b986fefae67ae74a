package jobs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// This file builds the job documents of the end-to-end benchmark's
// workloads (bench/workloads.go is a nested module the tests cannot import;
// the scripts and wiring here are the same) at whatever size a test asks
// for: the ingest path is held to the shapes real traffic has.

// flowShape reads a generator flow's sources (name and attributes in global
// order) and the attributes only UDFs write.
func flowShape(f *dataflow.Flow) (sources []SourceDef, extra []string) {
	inSource := map[int]bool{}
	for _, op := range f.Operators() {
		if op.Kind != dataflow.KindSource {
			continue
		}
		src := SourceDef{Name: op.Name}
		for _, i := range op.SourceAttrs.Sorted() {
			src.Attrs = append(src.Attrs, f.AttrName(i))
			inSource[i] = true
		}
		sources = append(sources, src)
	}
	for i := 0; i < f.NumAttrs(); i++ {
		if !inSource[i] {
			extra = append(extra, f.AttrName(i))
		}
	}
	return sources, extra
}

// sourceRows projects generated records (global layout) onto each source's
// own attribute order, the row form a document carries.
func sourceRows(f *dataflow.Flow, sources []SourceDef, data map[string]record.DataSet) map[string][]Row {
	out := make(map[string][]Row, len(sources))
	for _, src := range sources {
		idx := make([]int, len(src.Attrs))
		for i, a := range src.Attrs {
			idx[i] = f.Attr(a)
		}
		rows := make([]Row, len(data[src.Name]))
		for r, rec := range data[src.Name] {
			rows[r] = EncodeRow(rec.Project(idx))
		}
		out[src.Name] = rows
	}
	return out
}

func mustMarshal(tb testing.TB, doc *ScriptJob) []byte {
	tb.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// q7Doc is TPC-H Q7 at scale factor sf: five FK joins, two filters, a sum
// with a combiner. dateHi is the shipdate window's upper bound; varying it
// changes the script (and the answer) but not a byte of the data — the
// q7.coldplan shape.
func q7Doc(tb testing.TB, sf float64, dateHi int64, budget int) []byte {
	tb.Helper()
	g := &tpch.GenParams{SF: sf, Seed: 1}
	q, err := tpch.BuildQ7(tpch.ModeManual, g)
	if err != nil {
		tb.Fatal(err)
	}
	f := q.Flow
	sources, extra := flowShape(f)
	script := fmt.Sprintf(`
map filterShipdate(ir) {
	d := ir[%[1]d]
	if d >= %[2]d && d <= %[3]d {
		emit ir
	}
}

match concatJoin(l, r) {
	o := concat(l, r)
	emit o
}

map filterNationPair(ir) {
	n1 := ir[%[4]d]
	n2 := ir[%[5]d]
	if (n1 == %[6]q && n2 == %[7]q) || (n1 == %[7]q && n2 == %[6]q) {
		emit ir
	}
}

reduce partialVolume(g) {
	first := g.at(0)
	out := copy(first)
	out[%[8]d] = sum(g, %[8]d)
	emit out
}

reduce sumVolume(g) {
	first := g.at(0)
	out := new()
	out[%[4]d] = first[%[4]d]
	out[%[5]d] = first[%[5]d]
	out[%[9]d] = first[%[9]d]
	out[%[10]d] = sum(g, %[8]d)
	emit out
}
`, f.Attr("l_shipdate"), tpch.Q7DateLo, dateHi,
		f.Attr("n1_name"), f.Attr("n2_name"), tpch.NationX, tpch.NationY,
		f.Attr("l_revenue"), f.Attr("o_year"), f.Attr("volume"))

	join := func(name, in, right, lk, rk string, card int) OpDef {
		return OpDef{Kind: "match", Name: name, UDF: "concatJoin", Inputs: []string{in, right},
			Keys: [][]string{{lk}, {rk}}, KeyCardinality: float64(card)}
	}
	return mustMarshal(tb, &ScriptJob{
		Name:              "q7",
		Script:            script,
		MemoryBudgetBytes: budget,
		Data:              sourceRows(f, sources, g.Generate(f)),
		Flow: FlowDef{
			Attrs:   extra,
			Sources: sources,
			Sink:    "agg_volume",
			Ops: []OpDef{
				{Kind: "map", Name: "filter_shipdate", UDF: "filterShipdate", Inputs: []string{"lineitem"}, Selectivity: g.DateSelectivity()},
				join("join_l_s", "filter_shipdate", "supplier", "l_suppkey", "s_key", g.Suppliers()),
				join("join_l_o", "join_l_s", "orders", "l_orderkey", "o_key", g.Orders()),
				join("join_o_c", "join_l_o", "customer", "o_custkey", "c_key", g.Customers()),
				join("join_c_n1", "join_o_c", "nation1", "c_nationkey", "n1_key", tpch.NumNations),
				join("join_s_n2", "join_c_n1", "nation2", "s_nationkey", "n2_key", tpch.NumNations),
				{Kind: "map", Name: "filter_nation_pair", UDF: "filterNationPair", Inputs: []string{"join_s_n2"},
					Selectivity: 2.0 / (tpch.NumNations * tpch.NumNations)},
				{Kind: "reduce", Name: "agg_volume", UDF: "sumVolume", Combiner: "partialVolume", Inputs: []string{"filter_nation_pair"},
					Keys: [][]string{{"n1_name", "n2_name", "o_year"}}, KeyCardinality: 14, Selectivity: 1},
			},
		},
	})
}

// clicksDoc is the clickstream task: two session Reduces and two Matches
// (the optimizer picks merge joins, which sort their inputs in place).
func clicksDoc(tb testing.TB, sessions, users int) []byte {
	tb.Helper()
	g := &clickstream.GenParams{Sessions: sessions, ClicksPerSess: 12, BuyRate: 0.10, LoginRate: 0.30, Users: users, Seed: 1}
	t, err := clickstream.Build(clickstream.ModeManual, g)
	if err != nil {
		tb.Fatal(err)
	}
	f := t.Flow
	sources, extra := flowShape(f)
	script := fmt.Sprintf(`
reduce filterBuySessions(g) {
	if max(g, %[3]d) >= %[9]d {
		n := g.size()
		i := 0
		while i < n {
			r := g.at(i)
			emit r
			i := i + 1
		}
	}
}

reduce condenseSessions(g) {
	first := g.at(0)
	out := copy(first)
	out[%[4]d] = count(g, %[2]d)
	out[%[5]d] = max(g, %[1]d) - min(g, %[1]d)
	out[%[6]d] = max(g, %[3]d)
	out[%[1]d] = null
	out[%[3]d] = null
	emit out
}

match filterLoggedIn(l, r) {
	o := concat(l, r)
	emit o
}

match appendUserInfo(l, r) {
	o := concat(l, r)
	p := r[%[7]d]
	o[%[8]d] = r[p]
	emit o
}
`, f.Attr("c_ts"), f.Attr("c_session"), f.Attr("c_action"),
		f.Attr("cs_count"), f.Attr("cs_duration"), f.Attr("cs_hasbuy"),
		f.Attr("u_pref"), f.Attr("ui_pref_value"), clickstream.ActionBuy)

	return mustMarshal(tb, &ScriptJob{
		Name:   "clicks",
		Script: script,
		Data:   sourceRows(f, sources, g.Generate(f)),
		Flow: FlowDef{
			Attrs:   extra,
			Sources: sources,
			Sink:    "append_userinfo",
			Ops: []OpDef{
				{Kind: "reduce", Name: "filter_buy_sessions", UDF: "filterBuySessions", Inputs: []string{"click"},
					Keys: [][]string{{"c_session"}}, Selectivity: float64(g.ClicksPerSess) * g.BuyRate, KeyCardinality: float64(g.Sessions)},
				{Kind: "reduce", Name: "condense_sessions", UDF: "condenseSessions", Inputs: []string{"filter_buy_sessions"},
					Keys: [][]string{{"c_session"}}, Selectivity: 1, KeyCardinality: float64(g.Sessions) * g.BuyRate},
				{Kind: "match", Name: "filter_loggedin", UDF: "filterLoggedIn", Inputs: []string{"condense_sessions", "login"},
					Keys: [][]string{{"c_session"}, {"l_session"}}, Selectivity: g.LoginRate, KeyCardinality: float64(g.Sessions)},
				{Kind: "match", Name: "append_userinfo", UDF: "appendUserInfo", Inputs: []string{"filter_loggedin", "user"},
					Keys: [][]string{{"l_user"}, {"u_key"}}, KeyCardinality: float64(g.Users)},
			},
		},
	})
}

// textmineDoc is the Map-only text-mining pipeline; burn scales the UDFs'
// scan loops (1 is the benchmark's cost, 0 none).
func textmineDoc(tb testing.TB, docs int, burn float64) []byte {
	tb.Helper()
	g := textmine.DefaultGen()
	g.Docs, g.Seed = docs, 1
	t, err := textmine.Build(textmine.ModeManual, g)
	if err != nil {
		tb.Fatal(err)
	}
	f := t.Flow
	sources, extra := flowShape(f)
	text, tokens := f.Attr("d_text"), f.Attr("t_tokens")
	scan := func(n int) string {
		return fmt.Sprintf(`txt := ir[%d]
	i := 0
	while i < %d {
		w := txt contains "zqzq"
		i := i + 1
	}`, text, int(float64(n)*burn))
	}
	var script strings.Builder
	fmt.Fprintf(&script, `
map tokenize(ir) {
	%s
	out := copy(ir)
	out[%d] = len(txt)
	emit out
}

map posTag(ir) {
	tk := ir[%d]
	%s
	out := copy(ir)
	out[%d] = tk / 2
	emit out
}
`, scan(textmine.CostTokenize), tokens, tokens, scan(textmine.CostPOSTag), f.Attr("t_pos"))
	for _, ner := range []struct {
		name, marker string
		cost, out    int
	}{
		{"geneNER", textmine.MarkerGene, textmine.CostGeneNER, f.Attr("t_genes")},
		{"drugNER", textmine.MarkerDrug, textmine.CostDrugNER, f.Attr("t_drugs")},
		{"speciesTag", textmine.MarkerSpecies, textmine.CostSpecies, f.Attr("t_species")},
	} {
		fmt.Fprintf(&script, `
map %s(ir) {
	tk := ir[%d]
	%s
	if txt contains %q {
		out := copy(ir)
		out[%d] = tk
		emit out
	}
}
`, ner.name, tokens, scan(ner.cost), ner.marker, ner.out)
	}
	fmt.Fprintf(&script, `
map relEx(ir) {
	p := ir[%d]
	ge := ir[%d]
	dr := ir[%d]
	sp := ir[%d]
	%s
	if txt contains %q {
		out := copy(ir)
		out[%d] = p + ge + dr + sp
		emit out
	}
}
`, f.Attr("t_pos"), f.Attr("t_genes"), f.Attr("t_drugs"), f.Attr("t_species"),
		scan(textmine.CostRelEx), textmine.MarkerRelation, f.Attr("t_relations"))

	avgWidth := float64(g.WordsLo+g.WordsHi) / 2 * 6
	stage := func(name, udf, in string, scans int, sel float64) OpDef {
		return OpDef{Kind: "map", Name: name, UDF: udf, Inputs: []string{in},
			Selectivity: sel, CPUCostPerCall: float64(scans) * avgWidth / 100}
	}
	return mustMarshal(tb, &ScriptJob{
		Name:   "textmine",
		Script: script.String(),
		Data:   sourceRows(f, sources, g.Generate(f)),
		Flow: FlowDef{
			Attrs:   extra,
			Sources: sources,
			Sink:    "rel_ex",
			Ops: []OpDef{
				stage("tokenize", "tokenize", "docs", textmine.CostTokenize, 1),
				stage("pos_tag", "posTag", "tokenize", textmine.CostPOSTag, 1),
				stage("gene_ner", "geneNER", "pos_tag", textmine.CostGeneNER, g.GeneRate),
				stage("drug_ner", "drugNER", "gene_ner", textmine.CostDrugNER, g.DrugRate),
				stage("species_tag", "speciesTag", "drug_ner", textmine.CostSpecies, g.HumanRate),
				stage("rel_ex", "relEx", "species_tag", textmine.CostRelEx, g.RelRate),
			},
		},
	})
}

// TestFigureWorkloadsMatchDocuments pins the figure workloads
// (internal/workloads, what Table 1 and Figures 5–7 measure) to the job
// documents above (what the end-to-end benchmark submits): every operator
// both flows have runs a UDF that renders identically and derives the
// identical effect, so the two measure the same code.
func TestFigureWorkloadsMatchDocuments(t *testing.T) {
	q7, err := tpch.BuildQ7(tpch.ModeSCA, &tpch.GenParams{SF: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := clickstream.Build(clickstream.ModeSCA, &clickstream.GenParams{Sessions: 40, ClicksPerSess: 12, BuyRate: 0.10, LoginRate: 0.30, Users: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := textmine.Build(textmine.ModeSCA, textmine.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, c := range []struct {
		name string
		gen  *dataflow.Flow
		doc  []byte
	}{
		{"q7", q7.Flow, q7Doc(t, 0.01, tpch.Q7DateHi, 0)},
		{"clicks", clicks.Flow, clicksDoc(t, 40, 8)},
		{"textmine", tm.Flow, textmineDoc(t, 12, 1)},
	} {
		doc, err := decodeDoc(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := frontend.Compile(doc.Script)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := BuildFlow(&doc.Flow, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]*dataflow.Operator{}
		for _, op := range flow.Operators() {
			byName[op.Name] = op
		}
		for _, g := range c.gen.Operators() {
			d := byName[g.Name]
			if !g.IsUDFOp() || d == nil {
				continue
			}
			shared++
			if gs, ds := g.UDF.String(), d.UDF.String(); gs != ds {
				t.Errorf("%s %s: the generator's UDF\n%s\nthe document's\n%s", c.name, g.Name, gs, ds)
			}
			if ge, de := g.Effect.String(), d.Effect.String(); ge != de {
				t.Errorf("%s %s: effect %s, the document's %s", c.name, g.Name, ge, de)
			}
		}
	}
	if shared != 18 {
		t.Errorf("%d shared operators, want 18", shared)
	}
}
