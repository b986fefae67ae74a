package optimizer

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/workloads/tpch"
)

// TestRankingRetainsOnlyItsPlan: the node table and every per-node memo die
// with the search. A caller that keeps only the best physical plan, from
// either view of the search (the plan cache keeps 256 of Best's), retains
// that plan's own nodes: not the table, not the estimator's or the
// optimizer's memo storage, not the candidate store its plans were built
// from, and not the other alternatives. A table handle on a node that were
// a pointer would pin the whole enumeration through the kept plan. Best's
// search carves its nodes from chunks, so its plan must hold none of them:
// not one node of the table may outlive it.
func TestRankingRetainsOnlyItsPlan(t *testing.T) {
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"rank-all", "best"} {
		t.Run(view, func(t *testing.T) {
			est := NewEstimator(q7.Flow)
			po := newRanker(est, 2, 0, NetProfile{}) // what RankAllNet and Best build
			held := map[string]func() bool{}
			var best *PhysPlan
			if view == "best" {
				best = po.winner(mustTree(t, q7.Flow)).Phys
				// Every node of the enumeration, the alternatives' roots among
				// them: a live one would pin its chunk.
				nodes := make([]weak.Pointer[Tree], len(est.tab.nodes))
				for i, n := range est.tab.nodes {
					nodes[i] = weak.Make(n)
				}
				held["node chunk"] = func() bool {
					for _, n := range nodes {
						if n.Value() != nil {
							return true
						}
					}
					return false
				}
			} else {
				ranked := po.rankAll(mustTree(t, q7.Flow))
				best = ranked[0].Phys
				// The worst alternative's root, and every other but the
				// best's: a carved table would place some of them beside
				// the best plan's nodes.
				held["worst alternative"] = isLive(weak.Make(ranked[len(ranked)-1].Tree))
				others := make([]weak.Pointer[Tree], len(ranked)-1)
				for i, rp := range ranked[1:] {
					others[i] = weak.Make(rp.Tree)
				}
				held["rest of the ranking"] = func() bool {
					for _, o := range others {
						if o.Value() != nil {
							return true
						}
					}
					return false
				}
			}
			want := best.Indent()
			held["node table"] = isLive(weak.Make(est.tab))
			held["estimator memo"] = isLive(weak.Make(&est.est[0]))
			held["optimizer memo"] = isLive(weak.Make(&po.memo[0]))
			held["candidate store"] = isLive(weak.Make(&po.kept[0]))
			held["partitioning table"] = isLive(weak.Make(&po.parts[0]))
			held["built-plan index"] = isLive(weak.Make(&po.phys[0]))
			est, po = nil, nil
			runtime.GC()
			runtime.GC()
			for what, live := range held {
				if live() {
					t.Errorf("the %s outlives the search: the kept plan retains it", what)
				}
			}
			if best.Indent() != want {
				t.Error("the kept plan changed")
			}
		})
	}
}

// TestFromFlowRefusesFlowsPastTheNodeKey: a flow with more operators than
// the node key has bits for is an error from FromFlow, not a panic later in
// the table.
func TestFromFlowRefusesFlowsPastTheNodeKey(t *testing.T) {
	f := dataflow.NewFlow()
	prev := f.Source("S", []string{"a"}, dataflow.Hints{Records: 1})
	for i := 1; i < maxOps; i++ {
		prev = f.Map("M", udf("id"), prev, dataflow.Hints{})
		prev.SetEffect(mapEffect(nil, nil))
	}
	f.SetSink("Out", prev)
	if _, err := FromFlow(f); err == nil || !strings.Contains(err.Error(), "operators") {
		t.Fatalf("FromFlow over %d operators: %v, want an error", len(f.Operators()), err)
	}
}

// TestRankAllQ7Allocs pins the allocations of one Q7 ranking at DOP 2: one
// node per sub-flow and one plan per sub-flow some alternative's best plan
// uses (1,859 each), and a few dozen slices of search state. Building a plan
// per kept candidate, as the ranker once did, made 10,090.
func TestRankAllQ7Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // start the collector's workers outside the count
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Plan(q7.Flow, 2, 0, NetProfile{}); err != nil {
			t.Fatal(err)
		}
	})
	if max := 3845 * 1.1; allocs > max {
		t.Errorf("one Q7 ranking made %.0f allocations, want at most %.0f", allocs, max)
	}
}

// TestBestQ7Allocs pins the allocations of one Q7 best-only search at DOP 2,
// the optimizer work of a plan-cache miss: the search's slices, the node
// table's chunks, and one allocation per node of the winner's plan, which
// carries its copy of the tree node. With a heap node per sub-flow, as a
// ranking's table makes them, the same search makes 1,999.
func TestBestQ7Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // start the collector's workers outside the count
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Best(q7.Flow, 2, 0, NetProfile{}); err != nil {
			t.Fatal(err)
		}
	})
	if max := 150 * 1.1; allocs > max {
		t.Errorf("one Q7 best-only search made %.0f allocations, want at most %.0f", allocs, max)
	}
}

// TestRankingLeavesKeySetsUnchanged: an operator's key sets are built once
// with the flow and shared by every ranking over it, and by the plans
// partitioned on them. A ranking reads them and leaves them as they were.
func TestRankingLeavesKeySetsUnchanged(t *testing.T) {
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	type keySet struct {
		op    *dataflow.Operator
		i     int
		words []uint64 // the shared storage
		want  string
	}
	var sets []keySet
	for _, op := range q7.Flow.Operators() {
		for i := range op.Keys {
			ks := op.KeySet(i)
			if ks.Empty() || &ks[0] != &op.KeySet(i)[0] {
				t.Fatalf("%s key set %d is %v, built anew on each call", op.Name, i, ks)
			}
			sets = append(sets, keySet{op, i, ks, ks.String()})
		}
	}
	if len(sets) == 0 {
		t.Fatal("Q7 has no keyed operators")
	}
	if _, err := Plan(q7.Flow, 2, 1<<20, NetProfile{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		got := s.op.KeySet(s.i)
		if got.String() != s.want || &got[0] != &s.words[0] {
			t.Errorf("%s key set %d is %v after a ranking, was %s", s.op.Name, s.i, got, s.want)
		}
	}
}

func isLive[T any](p weak.Pointer[T]) func() bool {
	return func() bool { return p.Value() != nil }
}
