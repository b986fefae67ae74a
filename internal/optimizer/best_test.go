package optimizer

import (
	"fmt"
	"math"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/workloads"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// TestBestMatchesPlanFirst: Best is Plan's ranked[0], over the four paper
// workloads in both annotation modes, four DOPs, four memory budgets and
// the zero and a measured network profile (256 configurations). The tree
// key, every plan node with its estimates, the cost bits and the
// enumeration stats must all be identical.
func TestBestMatchesPlanFirst(t *testing.T) {
	builds := []struct {
		name  string
		build func(workloads.Mode) (*dataflow.Flow, error)
	}{
		{"q7", func(m workloads.Mode) (*dataflow.Flow, error) {
			q, err := tpch.BuildQ7(m, tpch.DefaultGen())
			if err != nil {
				return nil, err
			}
			return q.Flow, nil
		}},
		{"q15", func(m workloads.Mode) (*dataflow.Flow, error) {
			q, err := tpch.BuildQ15(m, tpch.DefaultGen())
			if err != nil {
				return nil, err
			}
			return q.Flow, nil
		}},
		{"clickstream", func(m workloads.Mode) (*dataflow.Flow, error) {
			c, err := clickstream.Build(m, clickstream.DefaultGen())
			if err != nil {
				return nil, err
			}
			return c.Flow, nil
		}},
		{"textmine", func(m workloads.Mode) (*dataflow.Flow, error) {
			x, err := textmine.Build(m, textmine.DefaultGen())
			if err != nil {
				return nil, err
			}
			return x.Flow, nil
		}},
	}
	nets := []NetProfile{{}, {BytesPerSec: 200e6, LatencySec: 100e-6}}
	configs := 0
	for _, b := range builds {
		for _, mode := range []workloads.Mode{workloads.ModeSCA, workloads.ModeManual} {
			f, err := b.build(mode)
			if err != nil {
				t.Fatalf("%s mode %d: %v", b.name, mode, err)
			}
			for _, dop := range []int{1, 2, 3, 8} {
				for _, budget := range []float64{0, 1 << 10, 256 << 10, 32 << 20} {
					for _, net := range nets {
						configs++
						label := fmt.Sprintf("%s/mode=%d/dop=%d/budget=%g/net=%v", b.name, mode, dop, budget, net)
						ranked, err := Plan(f, dop, budget, net)
						if err != nil {
							t.Fatalf("%s: Plan: %v", label, err)
						}
						best, err := Best(f, dop, budget, net)
						if err != nil {
							t.Fatalf("%s: Best: %v", label, err)
						}
						want := ranked[0]
						switch {
						case best.Tree.Key() != want.Tree.Key():
							t.Errorf("%s: Best picked %s, Plan ranks %s first", label, best.Tree.Key(), want.Tree.Key())
						case best.Phys.Indent() != want.Phys.Indent():
							t.Errorf("%s: physical plans differ:\n%s\nwant\n%s", label, best.Phys.Indent(), want.Phys.Indent())
						case math.Float64bits(best.Cost) != math.Float64bits(want.Cost) ||
							math.Float64bits(best.Phys.Cost.Total()) != math.Float64bits(want.Phys.Cost.Total()):
							t.Errorf("%s: cost %v, want %v", label, best.Cost, want.Cost)
						case *best.Enum != *want.Enum || best.Enum.Expanded != len(ranked):
							t.Errorf("%s: stats %+v, want %+v over %d plans", label, *best.Enum, *want.Enum, len(ranked))
						case best.Rank != 1:
							t.Errorf("%s: rank %d, want 1", label, best.Rank)
						}
					}
				}
			}
		}
	}
	if configs != 256 {
		t.Fatalf("ran %d configurations, want 256", configs)
	}
}

// TestBestTieGoesToSmallerKey: two filters with identical hints and effects
// commute, and both orders cost exactly the same. Plan ranks the smaller
// canonical key first, and Best picks it too, whichever order the flow was
// written in (so whichever alternative the enumeration finds first).
func TestBestTieGoesToSmallerKey(t *testing.T) {
	for _, swap := range []bool{false, true} {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"a", "b"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 18})
		hints := dataflow.Hints{Selectivity: 0.5, CPUCostPerCall: 2}
		f1 := f.Map("F1", udf("id"), src, hints)
		f2 := f.Map("F2", udf("id"), src, hints)
		f1.SetEffect(filterEffect(0))
		f2.SetEffect(filterEffect(0))
		bottom, top := f1, f2
		if swap {
			bottom, top = f2, f1
		}
		top.Inputs[0] = bottom
		f.SetSink("Out", top)
		ranked, err := Plan(f, 4, 0, NetProfile{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) != 2 || ranked[0].Cost != ranked[1].Cost {
			t.Fatalf("swap=%v: want two alternatives of equal cost, got %d: %v", swap, len(ranked), ranked)
		}
		if ranked[0].Tree.Key() >= ranked[1].Tree.Key() {
			t.Errorf("swap=%v: Plan ranks %s before %s", swap, ranked[0].Tree.Key(), ranked[1].Tree.Key())
		}
		best, err := Best(f, 4, 0, NetProfile{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := best.Tree.Key(), ranked[0].Tree.Key(); got != want {
			t.Errorf("swap=%v: Best picked %s, want the smaller key %s", swap, got, want)
		}
	}
}
