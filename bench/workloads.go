package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// A workload is one traffic mix: the documents a client cycles through in
// order, the answer each must produce, and the fleet it runs on.
type workload struct {
	Name string
	// Why records the reason the workload exists (BENCHMARK.json and the
	// README carry the same line).
	Why string
	// Workers is the number of flowworker processes; zero keeps every
	// shuffle on the in-process channel transport.
	Workers int
	// Spills says the documents carry a memory budget small enough that
	// shuffle receivers must overflow to disk; ColdPlan that every document
	// is new to the plan cache. Both drive the validity guards.
	Spills   bool
	ColdPlan bool
	// build generates the documents and their reference answers from a
	// seed. toy selects the smoke-test sizes.
	build func(seed int64, toy bool) (*docSet, error)
}

// docSet is a workload's generated input: pre-encoded documents and the
// expected bag of each.
type docSet struct {
	Docs [][]byte
	Want []*answer
}

// Sizes are constants, calibrated once on the 2-core reference box so the
// median job lands in 80–300 ms (q7.coldplan: 15–50 ms). They are never
// tuned at run time: a number from this benchmark is only comparable to
// another taken at the same sizes.
const (
	q7WarmSF       = 4.0
	q7ColdSF       = 0.25
	q7ColdDocs     = 512 // 2× the server's 256-entry plan cache ⇒ every lookup misses
	q7SpillBudget  = 256 << 10
	clickSessions  = 5000
	clickPerSess   = 12
	clickUsers     = 640
	textmineDocs   = 4500
	toyQ7SF        = 0.5
	toyQ7ColdSF    = 0.1
	toySessions    = 600
	toyUsers       = 80
	toyTextDocs    = 300
	serverSlots    = 2 // flowserve -max-concurrent
	serverDOP      = 2 // flowserve -dop
	clients        = 2 // closed-loop clients, one keep-alive connection each
	warmupPerConn  = 8 // warm-up jobs per client before the window opens
	jobTimeoutSecs = 10
)

var workloads = []*workload{
	{
		Name: "q7.warm",
		Why:  "TPC-H Q7 at SF 4, one document replayed, resident joins on the channel transport: the plan cache always hits, so time is row decode, ship and join work",
		build: func(seed int64, toy bool) (*docSet, error) {
			sf := q7WarmSF
			if toy {
				sf = toyQ7SF
			}
			return buildQ7(seed, sf, 0, 1)
		},
	},
	{
		Name:   "q7.spill",
		Why:    "the q7.warm document with a 256 KiB memory budget, so shuffle receivers overflow to sorted runs: the same engine layer on its spilling path",
		Spills: true,
		build: func(seed int64, toy bool) (*docSet, error) {
			// No toy size: a receiver spills only past a full 1024-record
			// batch per partition, which takes about this many lineitems.
			return buildQ7(seed, q7WarmSF, q7SpillBudget, 1)
		},
	},
	{
		Name:     "q7.coldplan",
		Why:      "Q7 at SF 0.25 over 512 documents that differ in one script literal: the plan cache always misses, so PactScript compile, SCA and plan enumeration dominate",
		ColdPlan: true,
		build: func(seed int64, toy bool) (*docSet, error) {
			sf := q7ColdSF
			if toy {
				sf = toyQ7ColdSF
			}
			return buildQ7(seed, sf, 0, q7ColdDocs)
		},
	},
	{
		Name:    "clicks.tcp",
		Why:     "clickstream sessions (two Reduces, two Matches) shuffled through two flowworker processes: the only workload where TCP framing, the wire codec and the relay carry the bytes",
		Workers: 2,
		build: func(seed int64, toy bool) (*docSet, error) {
			g := &clickstream.GenParams{
				Sessions: clickSessions, ClicksPerSess: clickPerSess,
				BuyRate: 0.10, LoginRate: 0.30, Users: clickUsers, Seed: seed,
			}
			if toy {
				g.Sessions, g.Users = toySessions, toyUsers
			}
			return buildClicks(g)
		},
	},
	{
		Name: "textmine.udf",
		Why:  "the Map-only text-mining pipeline with its burn loops: no shuffle, spill or transport, only fused tac interpretation and result encoding",
		build: func(seed int64, toy bool) (*docSet, error) {
			g := textmine.DefaultGen()
			g.Docs, g.Seed = textmineDocs, seed
			if toy {
				g.Docs = toyTextDocs
			}
			return buildTextmine(g)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// flowShape reads a generator flow's sources (name and attributes in global
// order) and UDF-written attributes, so documents declare exactly the
// global record layout the seeded generators laid their rows out on.
func flowShape(f *dataflow.Flow) (sources []jobs.SourceDef, extra []string) {
	inSource := map[int]bool{}
	for _, op := range f.Operators() {
		if op.Kind != dataflow.KindSource {
			continue
		}
		src := jobs.SourceDef{Name: op.Name}
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
// own attribute order, the row form a ScriptJob document carries.
func sourceRows(f *dataflow.Flow, sources []jobs.SourceDef, data map[string]record.DataSet) map[string][]jobs.Row {
	out := make(map[string][]jobs.Row, len(sources))
	for _, src := range sources {
		idx := make([]int, len(src.Attrs))
		for i, a := range src.Attrs {
			idx[i] = f.Attr(a)
		}
		ds := data[src.Name]
		rows := make([]jobs.Row, len(ds))
		for r, rec := range ds {
			rows[r] = jobs.EncodeRow(rec.Project(idx))
		}
		out[src.Name] = rows
	}
	return out
}

// q7DateHiToken stands in for the shipdate upper bound while the document
// is encoded once; each variant splices its own literal in.
const q7DateHiToken = "DATEHI"

// buildQ7 ports tpch.BuildQ7 to a ScriptJob: the five FK joins, both
// filters, and the final sum with a combiner. Variant k of ndocs widens the
// shipdate window by k days, which changes the script (a new flow- and
// plan-cache key) and the answer (so a cache mix-up is a wrong answer).
func buildQ7(seed int64, sf float64, budget, ndocs int) (*docSet, error) {
	g := &tpch.GenParams{SF: sf, Seed: seed}
	q, err := tpch.BuildQ7(tpch.ModeManual, g)
	if err != nil {
		return nil, err
	}
	f := q.Flow
	sources, extra := flowShape(f)
	rows := sourceRows(f, sources, g.Generate(f))

	script := fmt.Sprintf(`
map filterShipdate(ir) {
	d := ir[%[1]d]
	if d >= %[2]d && d <= %[3]s {
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
`, f.Attr("l_shipdate"), tpch.Q7DateLo, q7DateHiToken,
		f.Attr("n1_name"), f.Attr("n2_name"), tpch.NationX, tpch.NationY,
		f.Attr("l_revenue"), f.Attr("o_year"), f.Attr("volume"))

	join := func(name, in, right, lk, rk string, card int) jobs.OpDef {
		return jobs.OpDef{Kind: "match", Name: name, UDF: "concatJoin", Inputs: []string{in, right},
			Keys: [][]string{{lk}, {rk}}, KeyCardinality: float64(card)}
	}
	doc := jobs.ScriptJob{
		Name:              "q7",
		Script:            script,
		MemoryBudgetBytes: budget,
		Data:              rows,
		Flow: jobs.FlowDef{
			Attrs:   extra,
			Sources: sources,
			Sink:    "agg_volume",
			Ops: []jobs.OpDef{
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
	}
	base, err := json.Marshal(&doc)
	if err != nil {
		return nil, err
	}
	if bytes.Count(base, []byte(q7DateHiToken)) != 1 {
		return nil, fmt.Errorf("q7 document holds the %s token more than once", q7DateHiToken)
	}
	set := &docSet{}
	for k := 0; k < ndocs; k++ {
		hi := int64(tpch.Q7DateHi + k)
		set.Docs = append(set.Docs, bytes.Replace(base, []byte(q7DateHiToken), []byte(strconv.FormatInt(hi, 10)), 1))
		set.Want = append(set.Want, newAnswer(refQ7(rows, f.Attr, f.NumAttrs(), tpch.Q7DateLo, hi)))
	}
	return set, nil
}

// buildClicks ports clickstream.Build: two session Reduces and two Matches,
// the last selecting a user field through an index read from the data.
func buildClicks(g *clickstream.GenParams) (*docSet, error) {
	t, err := clickstream.Build(clickstream.ModeManual, g)
	if err != nil {
		return nil, err
	}
	f := t.Flow
	sources, extra := flowShape(f)
	rows := sourceRows(f, sources, g.Generate(f))

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

	doc := jobs.ScriptJob{
		Name:   "clicks",
		Script: script,
		Data:   rows,
		Flow: jobs.FlowDef{
			Attrs:   extra,
			Sources: sources,
			Sink:    "append_userinfo",
			Ops: []jobs.OpDef{
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
	}
	raw, err := json.Marshal(&doc)
	if err != nil {
		return nil, err
	}
	return &docSet{
		Docs: [][]byte{raw},
		Want: []*answer{newAnswer(refClicks(rows, f.Attr, f.NumAttrs()))},
	}, nil
}

// buildTextmine ports textmine.Build: six Maps whose burn loops scan the
// document text, four of them filtering on a planted marker.
func buildTextmine(g *textmine.GenParams) (*docSet, error) {
	t, err := textmine.Build(textmine.ModeManual, g)
	if err != nil {
		return nil, err
	}
	f := t.Flow
	sources, extra := flowShape(f)
	rows := sourceRows(f, sources, g.Generate(f))

	text, tokens := f.Attr("d_text"), f.Attr("t_tokens")
	burn := func(n int) string {
		return fmt.Sprintf(`txt := ir[%d]
	i := 0
	while i < %d {
		w := txt contains "zqzq"
		i := i + 1
	}`, text, n)
	}
	ner := func(name, marker string, cost, out int) string {
		return fmt.Sprintf(`
map %s(ir) {
	tk := ir[%d]
	%s
	if txt contains %q {
		out := copy(ir)
		out[%d] = tk
		emit out
	}
}
`, name, tokens, burn(cost), marker, out)
	}
	script := fmt.Sprintf(`
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
`, burn(textmine.CostTokenize), tokens, tokens, burn(textmine.CostPOSTag), f.Attr("t_pos")) +
		ner("geneNER", textmine.MarkerGene, textmine.CostGeneNER, f.Attr("t_genes")) +
		ner("drugNER", textmine.MarkerDrug, textmine.CostDrugNER, f.Attr("t_drugs")) +
		ner("speciesTag", textmine.MarkerSpecies, textmine.CostSpecies, f.Attr("t_species")) +
		fmt.Sprintf(`
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
			burn(textmine.CostRelEx), textmine.MarkerRelation, f.Attr("t_relations"))

	avgWidth := float64(g.WordsLo+g.WordsHi) / 2 * 6
	stage := func(name, udf, in string, scans int, sel float64) jobs.OpDef {
		return jobs.OpDef{Kind: "map", Name: name, UDF: udf, Inputs: []string{in},
			Selectivity: sel, CPUCostPerCall: float64(scans) * avgWidth / 100}
	}
	doc := jobs.ScriptJob{
		Name:   "textmine",
		Script: script,
		Data:   rows,
		Flow: jobs.FlowDef{
			Attrs:   extra,
			Sources: sources,
			Sink:    "rel_ex",
			Ops: []jobs.OpDef{
				stage("tokenize", "tokenize", "docs", textmine.CostTokenize, 1),
				stage("pos_tag", "posTag", "tokenize", textmine.CostPOSTag, 1),
				stage("gene_ner", "geneNER", "pos_tag", textmine.CostGeneNER, g.GeneRate),
				stage("drug_ner", "drugNER", "gene_ner", textmine.CostDrugNER, g.DrugRate),
				stage("species_tag", "speciesTag", "drug_ner", textmine.CostSpecies, g.HumanRate),
				stage("rel_ex", "relEx", "species_tag", textmine.CostRelEx, g.RelRate),
			},
		},
	}
	raw, err := json.Marshal(&doc)
	if err != nil {
		return nil, err
	}
	return &docSet{
		Docs: [][]byte{raw},
		Want: []*answer{newAnswer(refTextmine(rows, f.Attr, f.NumAttrs()))},
	}, nil
}
