// Package tpch implements the relational OLAP workload of the paper's
// evaluation (Section 7.2): scaled-down TPC-H data generation and the PACT
// implementations of the modified queries 7 and 15 shown in Figures 2
// and 3. The UDFs are written in PactScript and compiled to three-address
// code, so the same artifact is executed by the engine and analyzed by SCA.
package tpch

import (
	"fmt"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/props"
	"blackboxflow/internal/workloads"
)

// Mode selects manual annotations or static code analysis (Table 1).
type Mode = workloads.Mode

// Annotation modes.
const (
	ModeSCA    = workloads.ModeSCA
	ModeManual = workloads.ModeManual
)

// Q7 date-filter bounds (l_shipdate is an integer day number).
const (
	Q7DateLo = 8766 // 1995-01-01 as days since 1970-ish epoch, symbolic
	Q7DateHi = 9131 // 1996-01-01
	Q15Date  = 9500 // Q15 quarter start
	Q15Date2 = 9590 // Q15 quarter end
)

// Nation names used by the Q7 nation-pair predicate.
const (
	NationX = "FRANCE"
	NationY = "GERMANY"
)

// Query bundles a built flow with its tree-independent metadata.
type Query struct {
	Flow *dataflow.Flow
}

// Q7 states the PACT data flow of Figure 2(a) at g's sizes: a filter on
// lineitem, five FK joins (lineitem⋈supplier, lineitem⋈orders,
// orders⋈customer, customer⋈nation1, supplier⋈nation2), the disjunctive
// nation-pair filter as a Map, and the final grouping/sum Reduce.
func Q7(g *GenParams) *workloads.Def {
	join := func(name, in, right, lk, rk string, card int) dataflow.OpDef {
		return dataflow.OpDef{Kind: "match", Name: name, UDF: "concatJoin", Inputs: []string{in, right},
			Keys: [][]string{{lk}, {rk}}, FK: "left", KeyCardinality: float64(card)}
	}
	flow := dataflow.FlowDef{
		Sources: []dataflow.SourceDef{
			{Name: "lineitem", Attrs: []string{"l_orderkey", "l_suppkey", "l_shipdate", "l_revenue"}, Records: float64(g.Lineitems()), AvgWidthByte: 40},
			{Name: "supplier", Attrs: []string{"s_key", "s_nationkey"}, Records: float64(g.Suppliers()), AvgWidthByte: 22},
			{Name: "orders", Attrs: []string{"o_key", "o_custkey", "o_year"}, Records: float64(g.Orders()), AvgWidthByte: 31},
			{Name: "customer", Attrs: []string{"c_key", "c_nationkey"}, Records: float64(g.Customers()), AvgWidthByte: 22},
			{Name: "nation1", Attrs: []string{"n1_key", "n1_name"}, Records: NumNations, AvgWidthByte: 22},
			{Name: "nation2", Attrs: []string{"n2_key", "n2_name"}, Records: NumNations, AvgWidthByte: 22},
		},
		Attrs: []string{"volume"},
		Ops: []dataflow.OpDef{
			// The date filter keeps roughly one year of lineitems.
			{Kind: "map", Name: "filter_shipdate", UDF: "filterShipdate", Inputs: []string{"lineitem"}, Selectivity: g.DateSelectivity()},
			join("join_l_s", "filter_shipdate", "supplier", "l_suppkey", "s_key", g.Suppliers()),
			join("join_l_o", "join_l_s", "orders", "l_orderkey", "o_key", g.Orders()),
			join("join_o_c", "join_l_o", "customer", "o_custkey", "c_key", g.Customers()),
			join("join_c_n1", "join_o_c", "nation1", "c_nationkey", "n1_key", NumNations),
			join("join_s_n2", "join_c_n1", "nation2", "s_nationkey", "n2_key", NumNations),
			// The disjunctive nation-pair predicate keeps 2 of the 25×25 pairs.
			{Kind: "map", Name: "filter_nation_pair", UDF: "filterNationPair", Inputs: []string{"join_s_n2"},
				Selectivity: 2.0 / (NumNations * NumNations)},
			{Kind: "reduce", Name: "agg_volume", UDF: "sumVolume", Inputs: []string{"filter_nation_pair"},
				Keys: [][]string{{"n1_name", "n2_name", "o_year"}}, KeyCardinality: 2 * 7, Selectivity: 1},
		},
		Sink: "agg_volume",
	}
	at := workloads.Layout(&flow)
	script := fmt.Sprintf(`
// Shipdate range predicate of Q7 (modified selectivity, Section 7.2).
map filterShipdate(ir) {
	d := ir[%[1]d]
	if d >= %[2]d && d <= %[3]d {
		emit ir
	}
}

// All Q7 joins concatenate the matching pair.
match concatJoin(l, r) {
	o := concat(l, r)
	emit o
}

// Disjunctive nation-pair predicate: (n1=x AND n2=y) OR (n1=y AND n2=x),
// implemented as a filtering Map (Figure 2).
map filterNationPair(ir) {
	n1 := ir[%[4]d]
	n2 := ir[%[5]d]
	if (n1 == %[6]q && n2 == %[7]q) || (n1 == %[7]q && n2 == %[6]q) {
		emit ir
	}
}

// Grouping with sum aggregation over the revenue volume. The output holds
// exactly the grouping keys and the aggregate: the default constructor
// projects everything else, so the UDF is a deterministic function of the
// group as a bag (group-varying fields never leak into the output).
reduce sumVolume(g) {
	first := g.at(0)
	out := new()
	out[%[4]d] = first[%[4]d]
	out[%[5]d] = first[%[5]d]
	out[%[9]d] = first[%[9]d]
	out[%[10]d] = sum(g, %[8]d)
	emit out
}
`,
		at["l_shipdate"], Q7DateLo, Q7DateHi,
		at["n1_name"], at["n2_name"], NationX, NationY,
		at["l_revenue"], at["o_year"], at["volume"])
	return &workloads.Def{Script: script, Flow: flow}
}

// BuildQ7 builds Q7 with the effects mode asks for.
func BuildQ7(mode Mode, g *GenParams) (*Query, error) {
	f, err := Q7(g).Build(mode, func(f *dataflow.Flow) map[string]*props.Effect {
		return map[string]*props.Effect{
			"filter_shipdate":    manualFilter(f, "l_shipdate"),
			"join_l_s":           workloads.ConcatJoin(),
			"join_l_o":           workloads.ConcatJoin(),
			"join_o_c":           workloads.ConcatJoin(),
			"join_c_n1":          workloads.ConcatJoin(),
			"join_s_n2":          workloads.ConcatJoin(),
			"filter_nation_pair": manualFilter(f, "n1_name", "n2_name"),
			"agg_volume": manualKeyedAggregate(
				props.NewFieldSet(f.Attr("l_revenue")),
				props.NewFieldSet(f.Attr("n1_name"), f.Attr("n2_name"), f.Attr("o_year")),
				f.Attr("volume")),
		}
	})
	if err != nil {
		return nil, err
	}
	return &Query{Flow: f}, nil
}

// Q15 states the PACT data flow of Figure 3(a) at g's sizes: the shipdate
// filter on lineitem, the per-supplier revenue aggregation, and the PK-FK
// join with supplier (with the Reduce below the Match, as implemented in
// the paper).
func Q15(g *GenParams) *workloads.Def {
	flow := dataflow.FlowDef{
		Sources: []dataflow.SourceDef{
			{Name: "supplier", Attrs: []string{"s_key", "s_nationkey"}, Records: float64(g.Suppliers()), AvgWidthByte: 22},
			{Name: "lineitem", Attrs: []string{"l_orderkey", "l_suppkey", "l_shipdate", "l_revenue"}, Records: float64(g.Lineitems()), AvgWidthByte: 40},
		},
		Attrs: []string{"total_revenue"},
		Ops: []dataflow.OpDef{
			{Kind: "map", Name: "filter_quarter", UDF: "filterQuarter", Inputs: []string{"lineitem"}, Selectivity: g.QuarterSelectivity()},
			{Kind: "reduce", Name: "agg_revenue", UDF: "sumRevenue", Inputs: []string{"filter_quarter"},
				Keys: [][]string{{"l_suppkey"}}, KeyCardinality: float64(g.Suppliers()), Selectivity: 1},
			{Kind: "match", Name: "join_s_l", UDF: "concatJoin", Inputs: []string{"supplier", "agg_revenue"},
				Keys: [][]string{{"s_key"}, {"l_suppkey"}}, FK: "right", KeyCardinality: float64(g.Suppliers())},
		},
		Sink: "join_s_l",
	}
	at := workloads.Layout(&flow)
	script := fmt.Sprintf(`
map filterQuarter(ir) {
	d := ir[%[1]d]
	if d >= %[2]d && d <= %[3]d {
		emit ir
	}
}

match concatJoin(l, r) {
	o := concat(l, r)
	emit o
}

// Per-supplier revenue. Built on the copy constructor so that pass-through
// attributes (e.g. the supplier columns when the Reduce runs above the
// Match, Theorem 4) survive; the group-varying lineitem fields are
// explicitly projected so the output is deterministic over the group bag.
reduce sumRevenue(g) {
	first := g.at(0)
	out := copy(first)
	out[%[6]d] = null
	out[%[1]d] = null
	out[%[4]d] = null
	out[%[5]d] = sum(g, %[4]d)
	emit out
}
`,
		at["l_shipdate"], Q15Date, Q15Date2,
		at["l_revenue"], at["total_revenue"], at["l_orderkey"])
	return &workloads.Def{Script: script, Flow: flow}
}

// BuildQ15 builds Q15 with the effects mode asks for.
func BuildQ15(mode Mode, g *GenParams) (*Query, error) {
	f, err := Q15(g).Build(mode, func(f *dataflow.Flow) map[string]*props.Effect {
		return map[string]*props.Effect{
			"filter_quarter": manualFilter(f, "l_shipdate"),
			"agg_revenue": manualPassThroughAggregate(
				props.NewFieldSet(f.Attr("l_revenue")),
				props.NewFieldSet(f.Attr("l_orderkey"), f.Attr("l_shipdate"), f.Attr("l_revenue")),
				f.Attr("total_revenue")),
			"join_s_l": workloads.ConcatJoin(),
		}
	})
	if err != nil {
		return nil, err
	}
	return &Query{Flow: f}, nil
}

// manualFilter annotates a 0-or-1 filter Map reading (and branching on) the
// named attributes.
func manualFilter(f *dataflow.Flow, attrs ...string) *props.Effect {
	e := props.NewEffect(1)
	for _, a := range attrs {
		e.Reads.Add(f.Attr(a))
		e.CondReads.Add(f.Attr(a))
	}
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 0, 1
	return e
}

// manualKeyedAggregate annotates a Reduce UDF built on the default
// constructor: it emits exactly the explicitly copied key fields plus the
// aggregate at newAttr, implicitly projecting everything else.
func manualKeyedAggregate(reads, keyCopies props.FieldSet, newAttr int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = reads.Clone()
	e.Copies = keyCopies.Clone()
	e.Sets = props.NewFieldSet(newAttr)
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// manualPassThroughAggregate annotates a Reduce UDF built on the copy
// constructor: pass-through attributes survive, the group-varying fields in
// projects are explicitly nulled, and the aggregate lands at newAttr.
func manualPassThroughAggregate(reads, projects props.FieldSet, newAttr int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = reads.Clone()
	e.Projects = projects.Clone()
	e.Sets = props.NewFieldSet(newAttr)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}
