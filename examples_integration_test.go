// Integration tests executing every example pipeline (quickstart,
// relational, clickstream, textmining, pactscript) end to end through the
// public API surface, asserting their outputs against independently
// computed expectations. The example main packages themselves stay
// untestable binaries; these tests replicate their flows one-to-one (the
// clickstream and textmining examples build theirs from the shared workload
// packages) so a regression in parsing, analysis, enumeration, costing, or
// execution surfaces here.
package blackboxflow_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blackboxflow"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
)

// quickstartUDFs is the Section 3 program of examples/quickstart: f1 = |B|,
// f2 = keep A>=0, f3 = A+B over global attributes A=0, B=1.
const quickstartUDFs = `
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		out[1] = -b
	}
	emit out
}
map f2(ir) {
	if ir[0] >= 0 {
		emit ir
	}
}
map f3(ir) {
	out := copy(ir)
	out[0] = ir[0] + ir[1]
	emit out
}
`

func buildQuickstartFlow(t *testing.T) *blackboxflow.Flow {
	t.Helper()
	prog, err := blackboxflow.CompileUDFs(quickstartUDFs)
	if err != nil {
		t.Fatal(err)
	}
	flow := blackboxflow.NewFlow()
	src := flow.Source("I", []string{"A", "B"},
		blackboxflow.Hints{Records: 10000, AvgWidthBytes: 18})
	o1 := flow.Map("f1", prog.Funcs["f1"], src, blackboxflow.Hints{})
	o2 := flow.Map("f2", prog.Funcs["f2"], o1, blackboxflow.Hints{Selectivity: 0.5})
	o3 := flow.Map("f3", prog.Funcs["f3"], o2, blackboxflow.Hints{})
	flow.SetSink("O", o3)
	if err := flow.DeriveEffects(); err != nil {
		t.Fatal(err)
	}
	return flow
}

// TestQuickstartExamplePipeline runs the quickstart flow on random data and
// checks the engine output against a direct Go evaluation of the three UDFs
// in their original order (any valid reordering must produce the same bag).
func TestQuickstartExamplePipeline(t *testing.T) {
	flow := buildQuickstartFlow(t)

	alts, err := blackboxflow.Enumerate(flow)
	if err != nil {
		t.Fatal(err)
	}
	// Section 3: f1 and f2 commute, f3 is pinned -> exactly two orders.
	if len(alts) != 2 {
		t.Fatalf("enumerated %d orders, want 2", len(alts))
	}

	ranked, err := blackboxflow.RankPlans(flow, 4)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	data := make(blackboxflow.DataSet, 10000)
	want := make(blackboxflow.DataSet, 0, len(data))
	for i := range data {
		a := int64(rng.Intn(200) - 100)
		bv := int64(rng.Intn(200) - 100)
		data[i] = blackboxflow.Record{blackboxflow.Int(a), blackboxflow.Int(bv)}
		// f1: B := |B|; f2: keep A >= 0; f3: A := A + B.
		if bv < 0 {
			bv = -bv
		}
		if a >= 0 {
			want = append(want, blackboxflow.Record{blackboxflow.Int(a + bv), blackboxflow.Int(bv)})
		}
	}

	for _, rp := range ranked {
		eng := blackboxflow.NewEngine(4)
		eng.AddSource("I", data)
		out, stats, err := eng.Run(rp.Phys)
		if err != nil {
			t.Fatalf("plan %s: %v", rp.Tree, err)
		}
		if !out.Equal(want) {
			t.Fatalf("plan %s: output (%d records) differs from direct evaluation (%d records)",
				rp.Tree, len(out), len(want))
		}
		if stats.TotalUDFCalls() == 0 {
			t.Errorf("plan %s: no UDF calls recorded", rp.Tree)
		}
		for _, s := range stats.PerOp {
			if s.Name != "I" && s.Name != "O" && s.InRecords == 0 {
				t.Errorf("plan %s: operator %s reports zero input records", rp.Tree, s.Name)
			}
		}
	}

	// The paper's worked trace: [<2,-3>, <-2,-3>] -> [<5,3>].
	eng := blackboxflow.NewEngine(1)
	eng.AddSource("I", blackboxflow.DataSet{
		{blackboxflow.Int(2), blackboxflow.Int(-3)},
		{blackboxflow.Int(-2), blackboxflow.Int(-3)},
	})
	out, _, err := eng.Run(ranked[0].Phys)
	if err != nil {
		t.Fatal(err)
	}
	trace := blackboxflow.DataSet{{blackboxflow.Int(5), blackboxflow.Int(3)}}
	if !out.Equal(trace) {
		t.Fatalf("paper trace produced %v, want %v", out, trace)
	}
}

// relationalUDFs is the TPC-H Q15-style program of examples/relational.
const relationalUDFs = `
map quarter(ir) {
	d := ir[3]
	if d >= 900 && d <= 990 {
		emit ir
	}
}
match join(l, r) {
	o := concat(l, r)
	emit o
}
reduce revenue(g) {
	first := g.at(0)
	out := copy(first)
	out[3] = null
	out[4] = null
	out[5] = sum(g, 4)
	emit out
}
reduce revenuePartial(g) {
	first := g.at(0)
	out := copy(first)
	out[4] = sum(g, 4)
	emit out
}
`

// TestRelationalExamplePipeline runs the aggregation-push-down flow of
// examples/relational on deterministic data and checks the revenue sums per
// supplier against a direct computation.
func TestRelationalExamplePipeline(t *testing.T) {
	const (
		suppliers = 100
		lineitems = 20000
	)
	prog, err := blackboxflow.CompileUDFs(relationalUDFs)
	if err != nil {
		t.Fatal(err)
	}

	flow := blackboxflow.NewFlow()
	// Global attribute indices: s_key=0, s_name=1, l_suppkey=2,
	// l_shipdate=3, l_revenue=4, total_revenue=5.
	sup := flow.Source("supplier", []string{"s_key", "s_name"},
		blackboxflow.Hints{Records: suppliers, AvgWidthBytes: 24})
	li := flow.Source("lineitem", []string{"l_suppkey", "l_shipdate", "l_revenue"},
		blackboxflow.Hints{Records: lineitems, AvgWidthBytes: 27})
	flow.DeclareAttr("total_revenue")
	filt := flow.Map("quarter", prog.Funcs["quarter"], li,
		blackboxflow.Hints{Selectivity: 0.09})
	agg := flow.Reduce("revenue", prog.Funcs["revenue"], []string{"l_suppkey"}, filt,
		blackboxflow.Hints{KeyCardinality: suppliers})
	// Decomposable aggregation: every ranked plan below exercises the
	// pre-shuffle combiner path wherever the optimizer proves it safe.
	agg.SetCombiner(prog.Funcs["revenuePartial"])
	join := flow.Match("join", prog.Funcs["join"], []string{"s_key"}, []string{"l_suppkey"},
		sup, agg, blackboxflow.Hints{KeyCardinality: suppliers})
	join.FKSide = blackboxflow.FKRight
	flow.SetSink("out", join)
	if err := flow.DeriveEffects(); err != nil {
		t.Fatal(err)
	}

	// Deterministic data plus the directly computed expected revenue sums.
	var supData, liData blackboxflow.DataSet
	names := make([]string, suppliers)
	for k := 0; k < suppliers; k++ {
		names[k] = fmt.Sprintf("Supplier#%03d", k)
		supData = append(supData, blackboxflow.Record{
			blackboxflow.Int(int64(k)), blackboxflow.String(names[k]),
		})
	}
	revenue := make(map[int]int64)
	for i := 0; i < lineitems; i++ {
		suppkey := i % suppliers
		shipdate := (i * 37) % 1000
		rev := int64(1 + (i*13)%500)
		liData = append(liData, blackboxflow.Record{
			blackboxflow.Null, blackboxflow.Null,
			blackboxflow.Int(int64(suppkey)),
			blackboxflow.Int(int64(shipdate)),
			blackboxflow.Int(rev),
		})
		if shipdate >= 900 && shipdate <= 990 {
			revenue[suppkey] += rev
		}
	}
	var want blackboxflow.DataSet
	for k, sum := range revenue {
		// join emits concat(supplier, aggregate): the supplier fields plus
		// the aggregate's suppkey and total, shipdate/revenue nulled out.
		want = append(want, blackboxflow.Record{
			blackboxflow.Int(int64(k)), blackboxflow.String(names[k]),
			blackboxflow.Int(int64(k)), blackboxflow.Null, blackboxflow.Null,
			blackboxflow.Int(sum),
		})
	}

	ranked, err := blackboxflow.RankPlans(flow, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) < 2 {
		t.Fatalf("enumerated %d orders, want several (filter/aggregation push-down)", len(ranked))
	}
	for _, rp := range ranked {
		eng := blackboxflow.NewEngine(8)
		eng.AddSource("supplier", supData)
		eng.AddSource("lineitem", liData)
		out, stats, err := eng.Run(rp.Phys)
		if err != nil {
			t.Fatalf("plan %s: %v", rp.Tree, err)
		}
		if !out.Equal(want) {
			t.Fatalf("plan %s: %d records differ from expected %d per-supplier sums",
				rp.Tree, len(out), len(want))
		}
		if stats.TotalUDFCalls() == 0 {
			t.Errorf("plan %s: no UDF calls recorded", rp.Tree)
		}
	}
}

// TestClickstreamExamplePipeline runs the sessionization task of
// examples/clickstream (Figure 4 of the paper) in both annotation modes and
// checks every ranked plan's output against a direct evaluation over the
// generated data: sessions containing a buy, condensed to one record,
// joined with their login and user records, with the dynamically selected
// profile field materialized.
func TestClickstreamExamplePipeline(t *testing.T) {
	gen := clickstream.DefaultGen()
	orders := map[string]int{}
	for _, mode := range []struct {
		name string
		mode clickstream.Mode
	}{
		{"sca", clickstream.ModeSCA},
		{"manual", clickstream.ModeManual},
	} {
		t.Run(mode.name, func(t *testing.T) {
			task, err := clickstream.Build(mode.mode, gen)
			if err != nil {
				t.Fatal(err)
			}
			flow := task.Flow
			data := gen.Generate(flow)
			want := expectedClickstream(flow, data)

			ranked, err := blackboxflow.RankPlans(flow, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked) < 2 {
				t.Fatalf("enumerated %d orders, want several (join push-down)", len(ranked))
			}
			orders[mode.name] = len(ranked)
			for _, rp := range ranked {
				eng := blackboxflow.NewEngine(4)
				for name, ds := range data {
					eng.AddSource(name, ds)
				}
				out, stats, err := eng.Run(rp.Phys)
				if err != nil {
					t.Fatalf("plan %s: %v", rp.Tree, err)
				}
				if !out.Equal(want) {
					t.Fatalf("plan %s: %d records differ from the %d directly computed buy sessions",
						rp.Tree, len(out), len(want))
				}
				if stats.TotalUDFCalls() == 0 {
					t.Errorf("plan %s: no UDF calls recorded", rp.Tree)
				}
			}
		})
	}
	// The manual mode's extra reordering is the example's point: SCA must
	// treat the dynamic field access conservatively and therefore never
	// enumerate more orders than the manual annotations permit (Table 1).
	if orders["sca"] >= orders["manual"] {
		t.Errorf("SCA enumerated %d orders, manual %d; want strictly fewer (the conservatism gap)",
			orders["sca"], orders["manual"])
	}
}

// expectedClickstream evaluates the clickstream task directly over the
// generated source data.
func expectedClickstream(flow *blackboxflow.Flow, data map[string]blackboxflow.DataSet) blackboxflow.DataSet {
	attr := flow.Attr
	width := flow.NumAttrs()

	// Group clicks by session.
	type sess struct {
		first  blackboxflow.Record
		count  int64
		minTS  int64
		maxTS  int64
		hasBuy bool
	}
	sessions := map[int64]*sess{}
	var order []int64
	for _, r := range data["click"] {
		id := r.Field(attr("c_session")).AsInt()
		s, ok := sessions[id]
		if !ok {
			s = &sess{first: r, minTS: r.Field(attr("c_ts")).AsInt(), maxTS: r.Field(attr("c_ts")).AsInt()}
			sessions[id] = s
			order = append(order, id)
		}
		ts := r.Field(attr("c_ts")).AsInt()
		if ts < s.minTS {
			s.minTS = ts
		}
		if ts > s.maxTS {
			s.maxTS = ts
		}
		s.count++
		if r.Field(attr("c_action")).AsInt() == int64(clickstream.ActionBuy) {
			s.hasBuy = true
		}
	}
	logins := map[int64]blackboxflow.Record{}
	for _, r := range data["login"] {
		logins[r.Field(attr("l_session")).AsInt()] = r
	}
	users := map[int64]blackboxflow.Record{}
	for _, r := range data["user"] {
		users[r.Field(attr("u_key")).AsInt()] = r
	}

	var want blackboxflow.DataSet
	for _, id := range order {
		s := sessions[id]
		if !s.hasBuy {
			continue
		}
		login, ok := logins[id]
		if !ok {
			continue
		}
		user, ok := users[login.Field(attr("l_user")).AsInt()]
		if !ok {
			continue
		}
		// Condense: copy of the first click with ts/action projected and
		// the session aggregates added.
		rec := make(blackboxflow.Record, width)
		copy(rec, s.first)
		rec[attr("c_ts")] = blackboxflow.Null
		rec[attr("c_action")] = blackboxflow.Null
		rec[attr("cs_count")] = blackboxflow.Int(s.count)
		rec[attr("cs_duration")] = blackboxflow.Int(s.maxTS - s.minTS)
		rec[attr("cs_hasbuy")] = blackboxflow.Int(int64(clickstream.ActionBuy))
		// Joins: concatenation over the global record, plus the profile
		// field selected by the data-dependent index in u_pref.
		rec = rec.Merge(login).Merge(user)
		pref := user.Field(attr("u_pref")).AsInt()
		rec[attr("ui_pref_value")] = user.Field(int(pref))
		want = append(want, rec)
	}
	return want
}

// TestTextminingExamplePipeline runs the NLP pipeline of examples/textmining
// (Figure 6 of the paper) and checks the best- and worst-ranked stage orders
// against a direct evaluation: documents carrying all four markers survive,
// annotated with the token/POS/entity counts each stage derives.
func TestTextminingExamplePipeline(t *testing.T) {
	gen := &textmine.GenParams{Docs: 150, WordsLo: 40, WordsHi: 120,
		GeneRate: 0.3, DrugRate: 0.4, HumanRate: 0.55, RelRate: 0.5, Seed: 2}
	task, err := textmine.Build(textmine.ModeSCA, gen)
	if err != nil {
		t.Fatal(err)
	}
	flow := task.Flow
	data := gen.Generate(flow)
	attr := flow.Attr

	var want blackboxflow.DataSet
	for _, r := range data["docs"] {
		text := r.Field(attr("d_text")).AsString()
		if !strings.Contains(text, textmine.MarkerGene) ||
			!strings.Contains(text, textmine.MarkerDrug) ||
			!strings.Contains(text, textmine.MarkerSpecies) ||
			!strings.Contains(text, textmine.MarkerRelation) {
			continue
		}
		tokens := int64(len(text))
		pos := tokens / 2
		rec := r.Clone()
		rec[attr("t_tokens")] = blackboxflow.Int(tokens)
		rec[attr("t_pos")] = blackboxflow.Int(pos)
		rec[attr("t_genes")] = blackboxflow.Int(tokens)
		rec[attr("t_drugs")] = blackboxflow.Int(tokens)
		rec[attr("t_species")] = blackboxflow.Int(tokens)
		rec[attr("t_relations")] = blackboxflow.Int(pos + tokens + tokens + tokens)
		want = append(want, rec)
	}
	if len(want) == 0 {
		t.Fatal("generator produced no fully annotated documents; test data degenerate")
	}

	ranked, err := blackboxflow.RankPlans(flow, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four freely permutable middle stages: 24 orders (Table 1).
	if len(ranked) != 24 {
		t.Fatalf("enumerated %d stage orders, want 24", len(ranked))
	}
	for _, rp := range []blackboxflow.RankedPlan{ranked[0], ranked[len(ranked)-1]} {
		eng := blackboxflow.NewEngine(4)
		for name, ds := range data {
			eng.AddSource(name, ds)
		}
		out, _, err := eng.Run(rp.Phys)
		if err != nil {
			t.Fatalf("plan %s: %v", rp.Tree, err)
		}
		if !out.Equal(want) {
			t.Fatalf("plan %s: %d relations differ from the %d directly computed ones",
				rp.Tree, len(out), len(want))
		}
	}
}

// pactscriptSource is the sensor-cleaning script of examples/pactscript,
// compiled through the PactScript front end (attributes: device=0,
// reading=1, valid=2, avg_reading=3).
const pactscriptSource = `
map calibrate(ir) {
	r := ir[1]
	out := copy(ir)
	out[1] = r * 2 + 5
	emit out
}

map validOnly(ir) {
	if ir[2] == 1 {
		emit ir
	}
}

reduce perDevice(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = null
	out[2] = null
	out[3] = avg(g, 1)
	emit out
}
`

// TestPactscriptExamplePipeline compiles the surface-language flow of
// examples/pactscript, checks the discovered reorderings (the filter and
// the calibration commute; the filter is pinned below the aggregation), and
// runs every ranked plan against directly computed per-device averages.
func TestPactscriptExamplePipeline(t *testing.T) {
	prog, err := blackboxflow.CompileUDFs(pactscriptSource)
	if err != nil {
		t.Fatal(err)
	}
	flow := blackboxflow.NewFlow()
	flow.Source("samples", []string{"device", "reading", "valid"},
		blackboxflow.Hints{Records: 10000, AvgWidthBytes: 27})
	flow.DeclareAttr("avg_reading")
	cal := flow.Map("calibrate", prog.Funcs["calibrate"], flow.Operators()[0], blackboxflow.Hints{})
	val := flow.Map("validOnly", prog.Funcs["validOnly"], cal, blackboxflow.Hints{Selectivity: 0.7})
	agg := flow.Reduce("perDevice", prog.Funcs["perDevice"], []string{"device"}, val,
		blackboxflow.Hints{KeyCardinality: 100})
	flow.SetSink("out", agg)
	if err := flow.DeriveEffects(); err != nil {
		t.Fatal(err)
	}

	alts, err := blackboxflow.Enumerate(flow)
	if err != nil {
		t.Fatal(err)
	}
	// calibrate and validOnly commute; validOnly's condition field is not
	// in the grouping key, so it must not move past the Reduce: 2 orders.
	if len(alts) != 2 {
		t.Fatalf("enumerated %d orders, want 2", len(alts))
	}

	// Deterministic samples plus directly computed per-device averages of
	// the calibrated valid readings. The sums are integer-valued, so the
	// float arithmetic below is exact and order-independent, matching the
	// engine's avg aggregate bit for bit.
	var data blackboxflow.DataSet
	type accum struct {
		sum float64
		n   int
	}
	accums := map[int64]*accum{}
	for i := 0; i < 10000; i++ {
		device := int64(i % 100)
		reading := int64(i % 997)
		valid := int64(0)
		if i%10 < 7 {
			valid = 1
		}
		data = append(data, blackboxflow.Record{
			blackboxflow.Int(device), blackboxflow.Int(reading), blackboxflow.Int(valid),
		})
		if valid == 1 {
			a, ok := accums[device]
			if !ok {
				a = &accum{}
				accums[device] = a
			}
			a.sum += float64(reading*2 + 5)
			a.n++
		}
	}
	var want blackboxflow.DataSet
	for device, a := range accums {
		want = append(want, blackboxflow.Record{
			blackboxflow.Int(device), blackboxflow.Null, blackboxflow.Null,
			blackboxflow.Float(a.sum / float64(a.n)),
		})
	}

	ranked, err := blackboxflow.RankPlans(flow, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range ranked {
		eng := blackboxflow.NewEngine(4)
		eng.AddSource("samples", data)
		out, stats, err := eng.Run(rp.Phys)
		if err != nil {
			t.Fatalf("plan %s: %v", rp.Tree, err)
		}
		if !out.Equal(want) {
			t.Fatalf("plan %s: %d device averages differ from direct evaluation (%d devices)",
				rp.Tree, len(out), len(want))
		}
		if stats.TotalUDFCalls() == 0 {
			t.Errorf("plan %s: no UDF calls recorded", rp.Tree)
		}
	}
}
