// Quickstart: the worked example of Section 3 of the paper.
//
// Three Map operators process records <A, B>:
//
//	f1 replaces B with |B|      (reads B, writes B)
//	f2 filters records with A<0 (reads A, writes nothing)
//	f3 replaces A with A+B      (reads A and B, writes A)
//
// The UDFs are written in PactScript; static code analysis discovers these
// read/write sets from the three-address code they compile to. The optimizer
// concludes that f1 and f2 commute while f3 is pinned, enumerates both
// orders, and — because f2 discards half the records — places the filter
// first.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"blackboxflow"
)

const udfs = `
// f1: B := |B|
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		out[1] = -b
	}
	emit out
}

// f2: keep records with A >= 0
map f2(ir) {
	if ir[0] >= 0 {
		emit ir
	}
}

// f3: A := A + B
map f3(ir) {
	out := copy(ir)
	out[0] = ir[0] + ir[1]
	emit out
}
`

func main() {
	prog := blackboxflow.MustCompileUDFs(udfs)

	// The three-address code the UDFs compile to: what the engine runs and
	// what static code analysis reads (the notation of Section 3).
	fmt.Printf("compiled UDFs:\n%s\n", prog)

	// Assemble the flow I -> f1 -> f2 -> f3 -> O of Section 3.
	flow := blackboxflow.NewFlow()
	src := flow.Source("I", []string{"A", "B"},
		blackboxflow.Hints{Records: 10000, AvgWidthBytes: 18})
	o1 := flow.Map("f1", prog.Funcs["f1"], src, blackboxflow.Hints{})
	o2 := flow.Map("f2", prog.Funcs["f2"], o1, blackboxflow.Hints{Selectivity: 0.5})
	o3 := flow.Map("f3", prog.Funcs["f3"], o2, blackboxflow.Hints{})
	flow.SetSink("O", o3)

	// Open the black boxes: derive each UDF's properties by static code
	// analysis.
	if err := flow.DeriveEffects(false); err != nil {
		log.Fatal(err)
	}
	for _, op := range flow.Operators() {
		if op.IsUDFOp() {
			fmt.Printf("%-4s effect: %s\n", op.Name, op.Effect)
		}
	}

	// Enumerate the valid reorderings: exactly the two orders of Section 3
	// (f1/f2 commute; f3 conflicts with both).
	alts, err := blackboxflow.Enumerate(flow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d valid operator orders:\n", len(alts))
	for _, a := range alts {
		fmt.Println("  ", a)
	}

	// Rank them by cost: the filter-first plan wins.
	ranked, err := blackboxflow.RankPlans(flow, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest plan: %s (cost %.0f)\n", ranked[0].Tree, ranked[0].Cost)

	// Execute the best plan.
	rng := rand.New(rand.NewSource(1))
	data := make(blackboxflow.DataSet, 10000)
	for i := range data {
		data[i] = blackboxflow.Record{
			blackboxflow.Int(int64(rng.Intn(200) - 100)),
			blackboxflow.Int(int64(rng.Intn(200) - 100)),
		}
	}
	eng := blackboxflow.NewEngine(4)
	eng.AddSource("I", data)
	out, stats, err := eng.Run(ranked[0].Phys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted: %d in -> %d out\n\n%s", len(data), len(out), stats)

	// Sanity: the paper's trace for i = <2,-3> ends at <5,3>.
	eng2 := blackboxflow.NewEngine(1)
	eng2.AddSource("I", blackboxflow.DataSet{
		{blackboxflow.Int(2), blackboxflow.Int(-3)},
		{blackboxflow.Int(-2), blackboxflow.Int(-3)},
	})
	out2, _, err := eng2.Run(ranked[0].Phys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper trace [<2,-3>, <-2,-3>] -> %v\n", out2)
}
