// Pactscript: authoring UDFs in the structured surface language and
// watching the whole pipeline — compilation to three-address code, static
// property discovery, reordering, execution — operate on the compiled
// artifact.
//
// The scenario is a small sensor-cleaning flow: a calibration Map, a
// validity filter, and a per-device aggregation. The filter reads only the
// validity flag and the calibration writes only the reading, so the two
// commute; the filter's condition field is not part of the grouping key, so
// it must NOT move past the Reduce (Theorem 2's KGP condition) — the
// optimizer proves both facts from the compiled code.
//
// Run with: go run ./examples/pactscript
package main

import (
	"fmt"
	"log"
	"math/rand"

	"blackboxflow"
)

// Attributes: device=0, reading=1, valid=2, avg_reading=3.
const script = `
// Calibrate the raw reading (writes field 1, reads field 1).
map calibrate(ir) {
	r := ir[1]
	out := copy(ir)
	out[1] = r * 2 + 5
	emit out
}

// Drop invalid samples (reads field 2 only).
map validOnly(ir) {
	if ir[2] == 1 {
		emit ir
	}
}

// Average reading per device.
reduce perDevice(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = null
	out[2] = null
	out[3] = avg(g, 1)
	emit out
}
`

func main() {
	prog, err := blackboxflow.CompileUDFs(script)
	if err != nil {
		log.Fatal(err)
	}
	// Show what the static analysis will see.
	fmt.Println("compiled three-address code:")
	fmt.Println(prog)

	flow := blackboxflow.NewFlow()
	src := flow.Source("samples", []string{"device", "reading", "valid"},
		blackboxflow.Hints{Records: 50000, AvgWidthBytes: 27})
	flow.DeclareAttr("avg_reading")
	cal := flow.Map("calibrate", prog.Funcs["calibrate"], src, blackboxflow.Hints{})
	val := flow.Map("validOnly", prog.Funcs["validOnly"], cal, blackboxflow.Hints{Selectivity: 0.7})
	agg := flow.Reduce("perDevice", prog.Funcs["perDevice"], []string{"device"}, val,
		blackboxflow.Hints{KeyCardinality: 100})
	flow.SetSink("out", agg)

	if err := flow.DeriveEffects(); err != nil {
		log.Fatal(err)
	}
	alts, err := blackboxflow.Enumerate(flow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("valid orders (filter and calibration commute; the filter is pinned below the aggregation):\n")
	for _, a := range alts {
		fmt.Println("  ", a)
	}

	ranked, err := blackboxflow.RankPlans(flow, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest: %s (cost %.0f)\n", ranked[0].Tree, ranked[0].Cost)

	rng := rand.New(rand.NewSource(3))
	data := make(blackboxflow.DataSet, 50000)
	for i := range data {
		valid := int64(0)
		if rng.Float64() < 0.7 {
			valid = 1
		}
		data[i] = blackboxflow.Record{
			blackboxflow.Int(int64(rng.Intn(100))),
			blackboxflow.Int(int64(rng.Intn(1000))),
			blackboxflow.Int(valid),
		}
	}
	eng := blackboxflow.NewEngine(4)
	eng.AddSource("samples", data)
	out, _, err := eng.Run(ranked[0].Phys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %d devices averaged\n", len(out))
}
