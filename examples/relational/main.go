// Relational: the aggregation push-down of TPC-H Q15 (Figure 3 of the
// paper and the invariant-grouping rewrite of Section 4.3.2).
//
// A revenue-per-supplier aggregation sits above a PK-FK join in the
// implemented flow. The optimizer proves — from the UDF code plus the FK
// annotation — that the Reduce may move below the Match, shrinking the
// join's probe input by orders of magnitude, and that the Match can then
// reuse the Reduce's partitioning (the interesting-property discussion of
// Section 7.3).
//
// Run with: go run ./examples/relational
package main

import (
	"fmt"
	"log"
	"math/rand"

	"blackboxflow"
)

const udfs = `
// Keep lineitems of one quarter.
map quarter(ir) {
	d := ir[3]
	if d >= 900 && d <= 990 {
		emit ir
	}
}

// Concatenate the matching supplier and aggregate rows.
match join(l, r) {
	o := concat(l, r)
	emit o
}

// Revenue per supplier: pass-through of group-constant fields, the
// group-varying lineitem fields are projected, the sum is appended.
reduce revenue(g) {
	first := g.at(0)
	out := copy(first)
	out[3] = null
	out[4] = null
	out[5] = sum(g, 4)
	emit out
}

// Pre-shuffle partial aggregate for revenue: collapses any subset of a
// supplier's rows into one row carrying the partial sum in the same field
// the final aggregate reads (sum-of-sums = sum). Declared as the Reduce's
// combiner below; the optimizer verifies from this code that it emits
// exactly one record and never writes the grouping key.
reduce revenuePartial(g) {
	first := g.at(0)
	out := copy(first)
	out[4] = sum(g, 4)
	emit out
}
`

func main() {
	prog := blackboxflow.MustCompileUDFs(udfs)

	flow := blackboxflow.NewFlow()
	// Attribute indices: s_key=0, s_name=1, l_suppkey=2, l_shipdate=3,
	// l_revenue=4, total_revenue=5 (declared in this order).
	sup := flow.Source("supplier", []string{"s_key", "s_name"},
		blackboxflow.Hints{Records: 200, AvgWidthBytes: 24})
	li := flow.Source("lineitem", []string{"l_suppkey", "l_shipdate", "l_revenue"},
		blackboxflow.Hints{Records: 200000, AvgWidthBytes: 27})
	flow.DeclareAttr("total_revenue")

	filt := flow.Map("quarter", prog.Funcs["quarter"], li,
		blackboxflow.Hints{Selectivity: 0.09})
	agg := flow.Reduce("revenue", prog.Funcs["revenue"], []string{"l_suppkey"}, filt,
		blackboxflow.Hints{KeyCardinality: 200})
	// Declare the aggregation decomposable: the engine's shuffle senders
	// then pre-aggregate each outgoing batch, shipping at most one partial
	// row per supplier per flush window instead of every lineitem.
	agg.SetCombiner(prog.Funcs["revenuePartial"])
	join := flow.Match("join", prog.Funcs["join"], []string{"s_key"}, []string{"l_suppkey"},
		sup, agg, blackboxflow.Hints{KeyCardinality: 200})
	join.FKSide = blackboxflow.FKRight // lineitem references supplier
	flow.SetSink("out", join)

	if err := flow.DeriveEffects(false); err != nil {
		log.Fatal(err)
	}

	ranked, err := blackboxflow.RankPlans(flow, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d valid orders (implemented, filter push, aggregation push-up):\n", len(ranked))
	for _, rp := range ranked {
		fmt.Printf("  cost %8.0f  %s\n", rp.Cost, rp.Tree)
	}
	best := ranked[0]
	fmt.Printf("\nchosen physical plan:\n%s\n", best.Phys.Indent())

	// Execute it.
	rng := rand.New(rand.NewSource(7))
	var liData, supData blackboxflow.DataSet
	for k := 0; k < 200; k++ {
		supData = append(supData, blackboxflow.Record{
			blackboxflow.Int(int64(k)),
			blackboxflow.String(fmt.Sprintf("Supplier#%03d", k)),
		})
	}
	for i := 0; i < 200000; i++ {
		r := blackboxflow.Record{
			blackboxflow.Null, blackboxflow.Null,
			blackboxflow.Int(int64(rng.Intn(200))),
			blackboxflow.Int(int64(rng.Intn(1000))),
			blackboxflow.Int(int64(1 + rng.Intn(500))),
		}
		liData = append(liData, r)
	}
	eng := blackboxflow.NewEngine(8)
	eng.AddSource("supplier", supData)
	eng.AddSource("lineitem", liData)
	out, stats, err := eng.Run(best.Phys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result: revenue for %d suppliers\n\n%s", len(out), stats)
}
