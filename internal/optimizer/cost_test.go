package optimizer

import "testing"

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

// TestSpillCostPasses: the notional multi-pass penalty grows the term once
// the estimated run count exceeds the modeled merge fan-in.
func TestSpillCostPasses(t *testing.T) {
	if got := spillCost(100, 0); got != 0 {
		t.Errorf("no budget must mean no spill cost, got %g", got)
	}
	if got := spillCost(100, 200); got != 0 {
		t.Errorf("fitting volume must cost nothing, got %g", got)
	}
	onePass := spillCost(1000, 100) // 10 runs, 1 pass: 2 × 900
	if onePass != 1800 {
		t.Errorf("one-pass spill cost = %g, want 1800", onePass)
	}
	// mergeFanIn+ runs: two passes.
	vol := float64((mergeFanIn + 10) * 100)
	twoPass := spillCost(vol, 100)
	if want := 2 * (vol - 100) * 2; twoPass != want {
		t.Errorf("two-pass spill cost = %g, want %g", twoPass, want)
	}
}
