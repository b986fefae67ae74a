package optimizer

import (
	"testing"

	"blackboxflow/internal/dataflow"
)

// TestNetProfileCost pins the arithmetic of the measured-network term: a
// zero profile is the identity, a link slower than the reference scales
// byte costs proportionally, and each shuffle barrier is charged the bytes
// the reference network moves during one measured round trip.
func TestNetProfileCost(t *testing.T) {
	if got := (NetProfile{}).cost(1e6, 3); got != 1e6 {
		t.Errorf("zero profile: cost = %g, want raw bytes 1e6", got)
	}
	half := NetProfile{BytesPerSec: ReferenceNetBytesPerSec / 2}
	if got := half.cost(1e6, 0); got != 2e6 {
		t.Errorf("half-bandwidth link: cost = %g, want 2e6", got)
	}
	ref := NetProfile{BytesPerSec: ReferenceNetBytesPerSec, LatencySec: 0.001}
	want := 1e6 + 2*0.001*ReferenceNetBytesPerSec
	if got := ref.cost(1e6, 2); got != want {
		t.Errorf("reference link with latency: cost = %g, want %g", got, want)
	}
	if got := ref.cost(0, 0); got != 0 {
		t.Errorf("no bytes, no barriers: cost = %g, want 0", got)
	}
}

// TestRankAllNetZeroProfileMatchesBudget: an unmeasured profile must leave
// the ranking exactly as a budget-only physical optimizer (no Net set)
// costs it — same alternatives, same costs, ascending order — so
// single-process runs are unaffected by the transport-aware path existing.
func TestRankAllNetZeroProfileMatchesBudget(t *testing.T) {
	f, tree := buildJoinCostFlow(t, 15000, 2500)
	po := NewPhysicalOptimizer(NewEstimator(f), 8)
	po.MemoryBudget = 64 << 10
	base := map[string]float64{}
	for _, a := range NewEnumerator().Enumerate(tree) {
		base[a.Key()] = po.Optimize(a).Cost.Total(po.Weights)
	}
	net := RankAllNet(tree, NewEstimator(f), 8, 64<<10, NetProfile{})
	if len(base) != len(net) {
		t.Fatalf("rankings differ in length: %d vs %d", len(base), len(net))
	}
	for i, rp := range net {
		if want, ok := base[rp.Tree.Key()]; !ok || want != rp.Cost {
			t.Fatalf("rank %d: %q cost %g, budget-only optimizer costs it %g (known=%v)",
				i+1, rp.Tree.Key(), rp.Cost, want, ok)
		}
		if i > 0 && net[i-1].Cost > rp.Cost {
			t.Fatalf("rank %d (cost %g) sorts after rank %d (cost %g)", i+1, rp.Cost, i, net[i-1].Cost)
		}
	}
}

// TestNetProfileLatencySteersJoin: the sizes make the repartition join win
// on byte volume (broadcast ships DOP copies of the small side), but a
// high-latency link charges each shuffle barrier a round trip — two for
// the co-partitioned join, one for the broadcast — so the measured profile
// flips enumeration to the broadcast join. This is the steering the
// calibrated term exists for: on a slow wire, fewer synchronization
// barriers beat fewer bytes.
func TestNetProfileLatencySteersJoin(t *testing.T) {
	// DOP 8, ~24 B/record: L ≈ 24 KB, R ≈ 24 KB; repartition net ≈ 48 KB
	// beats broadcast net ≈ 192 KB on bytes alone.
	f, tree := buildJoinCostFlow(t, 1000, 1000)

	fast := RankAllNet(tree, NewEstimator(f), 8, 0, NetProfile{BytesPerSec: ReferenceNetBytesPerSec})
	match := findKind(fast[0].Phys, dataflow.KindMatch)
	if match == nil {
		t.Fatal("no Match in plan")
	}
	for i, s := range match.Ship {
		if s != ShipPartition {
			t.Fatalf("low-latency input %d ships %s, want partition:\n%s", i, s, fast[0].Phys.Indent())
		}
	}

	// 10 ms RTT charges 1.25e6 reference-bytes per barrier — far above the
	// ~144 KB byte gap between the strategies.
	slow := RankAllNet(tree, NewEstimator(f), 8, 0,
		NetProfile{BytesPerSec: ReferenceNetBytesPerSec, LatencySec: 0.010})
	match = findKind(slow[0].Phys, dataflow.KindMatch)
	if match == nil {
		t.Fatal("no Match in plan")
	}
	broadcast := false
	for _, s := range match.Ship {
		if s == ShipBroadcast {
			broadcast = true
		}
	}
	if !broadcast {
		t.Errorf("high-latency profile did not steer the join to broadcast:\n%s", slow[0].Phys.Indent())
	}
}
