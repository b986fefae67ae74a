package optimizer

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/workloads/tpch"
)

// TestRankingRetainsOnlyItsPlan: the node table and every per-node memo
// die with the ranking. A caller that keeps only the best physical plan (the
// plan cache keeps 256) retains that plan's own nodes: not the table, not
// the estimator's or the optimizer's memo storage, and not the other
// alternatives. A table handle on a node that were a pointer would pin the
// whole enumeration through the kept plan.
func TestRankingRetainsOnlyItsPlan(t *testing.T) {
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(q7.Flow)
	po := NewPhysicalOptimizer(est, 2) // what RankAllNet builds around rankAll
	ranked := po.rankAll(mustTree(t, q7.Flow))
	best := ranked[0].Phys
	want := best.Indent()
	held := map[string]func() bool{
		"node table":          isLive(weak.Make(est.tab)),
		"estimator memo":      isLive(weak.Make(&est.est[0])),
		"optimizer memo":      isLive(weak.Make(&po.memo[0])),
		"optimizer plan list": isLive(weak.Make(&po.kept[0])),
		"worst alternative":   isLive(weak.Make(ranked[len(ranked)-1].Tree)),
	}
	est, po, ranked = nil, nil, nil
	runtime.GC()
	runtime.GC()
	for what, live := range held {
		if live() {
			t.Errorf("the %s outlives the ranking: the kept plan retains it", what)
		}
	}
	if best.Indent() != want {
		t.Error("the kept plan changed")
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

func isLive[T any](p weak.Pointer[T]) func() bool {
	return func() bool { return p.Value() != nil }
}
