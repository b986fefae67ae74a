// Package tpch implements the relational OLAP workload of the paper's
// evaluation (Section 7.2): scaled-down TPC-H data generation and the PACT
// implementations of the modified queries 7 and 15 shown in Figures 2
// and 3. The UDFs are written in PactScript and compiled to three-address
// code, so the same artifact is executed by the engine and analyzed by SCA.
package tpch

import (
	"fmt"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
)

// Mode selects how operator properties are obtained, mirroring Table 1 of
// the paper: manual annotations or static code analysis.
type Mode int

// Annotation modes.
const (
	ModeSCA Mode = iota
	ModeManual
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

// BuildQ7 constructs the PACT data flow of Figure 2(a): a filter on
// lineitem, five FK joins (lineitem⋈supplier, lineitem⋈orders,
// orders⋈customer, customer⋈nation1, supplier⋈nation2), the disjunctive
// nation-pair filter as a Map, and the final grouping/sum Reduce.
func BuildQ7(mode Mode, g *GenParams) (*Query, error) {
	f := dataflow.NewFlow()

	li := f.Source("lineitem", []string{"l_orderkey", "l_suppkey", "l_shipdate", "l_revenue"},
		dataflow.Hints{Records: float64(g.Lineitems()), AvgWidthBytes: 40})
	sup := f.Source("supplier", []string{"s_key", "s_nationkey"},
		dataflow.Hints{Records: float64(g.Suppliers()), AvgWidthBytes: 22})
	ord := f.Source("orders", []string{"o_key", "o_custkey", "o_year"},
		dataflow.Hints{Records: float64(g.Orders()), AvgWidthBytes: 31})
	cust := f.Source("customer", []string{"c_key", "c_nationkey"},
		dataflow.Hints{Records: float64(g.Customers()), AvgWidthBytes: 22})
	n1 := f.Source("nation1", []string{"n1_key", "n1_name"},
		dataflow.Hints{Records: float64(NumNations), AvgWidthBytes: 22})
	n2 := f.Source("nation2", []string{"n2_key", "n2_name"},
		dataflow.Hints{Records: float64(NumNations), AvgWidthBytes: 22})

	volume := f.DeclareAttr("volume")

	prog, err := q7Program(f)
	if err != nil {
		return nil, err
	}
	udf := func(name string) *tac.Func {
		fn, ok := prog.Lookup(name)
		if !ok {
			panic("tpch: missing UDF " + name)
		}
		return fn
	}

	// The date filter keeps roughly one year of lineitems.
	dateSel := g.DateSelectivity()
	mShip := f.Map("filter_shipdate", udf("filterShipdate"), li,
		dataflow.Hints{Selectivity: dateSel})

	jls := f.Match("join_l_s", udf("concatJoin"), []string{"l_suppkey"}, []string{"s_key"},
		mShip, sup, dataflow.Hints{KeyCardinality: float64(g.Suppliers())})
	jls.FKSide = dataflow.FKLeft

	jlo := f.Match("join_l_o", udf("concatJoin"), []string{"l_orderkey"}, []string{"o_key"},
		jls, ord, dataflow.Hints{KeyCardinality: float64(g.Orders())})
	jlo.FKSide = dataflow.FKLeft

	joc := f.Match("join_o_c", udf("concatJoin"), []string{"o_custkey"}, []string{"c_key"},
		jlo, cust, dataflow.Hints{KeyCardinality: float64(g.Customers())})
	joc.FKSide = dataflow.FKLeft

	jcn1 := f.Match("join_c_n1", udf("concatJoin"), []string{"c_nationkey"}, []string{"n1_key"},
		joc, n1, dataflow.Hints{KeyCardinality: float64(NumNations)})
	jcn1.FKSide = dataflow.FKLeft

	jsn2 := f.Match("join_s_n2", udf("concatJoin"), []string{"s_nationkey"}, []string{"n2_key"},
		jcn1, n2, dataflow.Hints{KeyCardinality: float64(NumNations)})
	jsn2.FKSide = dataflow.FKLeft

	// The disjunctive nation-pair predicate keeps 2 of the 25×25 pairs.
	pairSel := 2.0 / float64(NumNations*NumNations)
	mPair := f.Map("filter_nation_pair", udf("filterNationPair"), jsn2,
		dataflow.Hints{Selectivity: pairSel})

	red := f.Reduce("agg_volume", udf("sumVolume"),
		[]string{"n1_name", "n2_name", "o_year"}, mPair,
		dataflow.Hints{KeyCardinality: 2 * 7, Selectivity: 1})

	f.SetSink("out", red)

	if err := annotate(f, mode, map[string]*props.Effect{
		"filter_shipdate":    manualFilter(f, "l_shipdate"),
		"join_l_s":           manualConcatJoin(),
		"join_l_o":           manualConcatJoin(),
		"join_o_c":           manualConcatJoin(),
		"join_c_n1":          manualConcatJoin(),
		"join_s_n2":          manualConcatJoin(),
		"filter_nation_pair": manualFilter(f, "n1_name", "n2_name"),
		"agg_volume": manualKeyedAggregate(
			props.NewFieldSet(f.Attr("l_revenue")),
			props.NewFieldSet(f.Attr("n1_name"), f.Attr("n2_name"), f.Attr("o_year")),
			volume),
	}); err != nil {
		return nil, err
	}
	return &Query{Flow: f}, nil
}

// BuildQ15 constructs the PACT data flow of Figure 3(a): the shipdate
// filter on lineitem, the per-supplier revenue aggregation, and the PK-FK
// join with supplier (with the Reduce below the Match, as implemented in
// the paper).
func BuildQ15(mode Mode, g *GenParams) (*Query, error) {
	f := dataflow.NewFlow()

	sup := f.Source("supplier", []string{"s_key", "s_nationkey"},
		dataflow.Hints{Records: float64(g.Suppliers()), AvgWidthBytes: 22})
	li := f.Source("lineitem", []string{"l_orderkey", "l_suppkey", "l_shipdate", "l_revenue"},
		dataflow.Hints{Records: float64(g.Lineitems()), AvgWidthBytes: 40})

	totalRevenue := f.DeclareAttr("total_revenue")

	prog, err := q15Program(f)
	if err != nil {
		return nil, err
	}
	udf := func(name string) *tac.Func {
		fn, ok := prog.Lookup(name)
		if !ok {
			panic("tpch: missing UDF " + name)
		}
		return fn
	}

	mShip := f.Map("filter_quarter", udf("filterQuarter"), li,
		dataflow.Hints{Selectivity: g.QuarterSelectivity()})

	red := f.Reduce("agg_revenue", udf("sumRevenue"), []string{"l_suppkey"}, mShip,
		dataflow.Hints{KeyCardinality: float64(g.Suppliers()), Selectivity: 1})

	j := f.Match("join_s_l", udf("concatJoin"), []string{"s_key"}, []string{"l_suppkey"},
		sup, red, dataflow.Hints{KeyCardinality: float64(g.Suppliers())})
	j.FKSide = dataflow.FKRight

	f.SetSink("out", j)

	if err := annotate(f, mode, map[string]*props.Effect{
		"filter_quarter": manualFilter(f, "l_shipdate"),
		"agg_revenue": manualPassThroughAggregate(
			props.NewFieldSet(f.Attr("l_revenue")),
			props.NewFieldSet(f.Attr("l_orderkey"), f.Attr("l_shipdate"), f.Attr("l_revenue")),
			totalRevenue),
		"join_s_l": manualConcatJoin(),
	}); err != nil {
		return nil, err
	}
	return &Query{Flow: f}, nil
}

// annotate applies either SCA or the supplied manual effects to every UDF
// operator of the flow.
func annotate(f *dataflow.Flow, mode Mode, manual map[string]*props.Effect) error {
	if mode == ModeSCA {
		return f.DeriveEffects(false)
	}
	for _, op := range f.Operators() {
		if !op.IsUDFOp() {
			continue
		}
		e, ok := manual[op.Name]
		if !ok {
			return fmt.Errorf("tpch: no manual annotation for %s", op.Name)
		}
		op.SetEffect(e)
	}
	return nil
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

// manualConcatJoin annotates a Match UDF that concatenates both inputs and
// emits exactly one record per pair.
func manualConcatJoin() *props.Effect {
	e := props.NewEffect(2)
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	e.EmitMin, e.EmitMax = 1, 1
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

// q7Program compiles the Q7 UDFs from PactScript against the flow's global
// attribute indices.
func q7Program(f *dataflow.Flow) (*tac.Program, error) {
	src := fmt.Sprintf(`
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
		f.Attr("l_shipdate"), Q7DateLo, Q7DateHi,
		f.Attr("n1_name"), f.Attr("n2_name"), NationX, NationY,
		f.Attr("l_revenue"), f.Attr("o_year"), f.Attr("volume"))
	return frontend.Compile(src)
}

// q15Program compiles the Q15 UDFs from PactScript.
func q15Program(f *dataflow.Flow) (*tac.Program, error) {
	src := fmt.Sprintf(`
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
		f.Attr("l_shipdate"), Q15Date, Q15Date2,
		f.Attr("l_revenue"), f.Attr("total_revenue"), f.Attr("l_orderkey"))
	return frontend.Compile(src)
}
