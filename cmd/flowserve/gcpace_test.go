package main

import (
	"math"
	"runtime"
	"testing"
	"time"

	"blackboxflow/internal/jobs"
)

// TestGCPercentRule pins the pacing rule: the goal leaves headroom above a
// small live heap, GOGC is exactly 100 once the live heap reaches the
// headroom, a live heap under the runtime's minimum counts as that minimum,
// and a huge headroom cannot wrap the percent negative.
func TestGCPercentRule(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		live, headroom uint64
		want           int
	}{
		{0, 32 * mib, 800},         // no cycle yet: the goal is the headroom
		{1 * mib, 32 * mib, 800},   // under the 4 MiB minimum heap
		{8 * mib, 32 * mib, 400},   // live < H: goal = live + H
		{32 * mib, 32 * mib, 100},  // live = H
		{100 * mib, 32 * mib, 100}, // live > H: the default pacing
		{0, math.MaxInt64, math.MaxInt32},
	} {
		if got := gcPercentFor(c.live, c.headroom); got != c.want {
			t.Errorf("gcPercentFor(%d, %d) = %d, want %d", c.live, c.headroom, got, c.want)
		}
	}
}

// collectUntil runs collections until the collector's readings satisfy ok
// (the pacer's cleanup runs after a cycle, on its own goroutine).
func collectUntil(t *testing.T, what string, ok func(gcMetrics) bool) gcMetrics {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		runtime.GC()
		if gc := readGC(); ok(gc) {
			return gc
		} else if time.Now().After(deadline) {
			t.Fatalf("after collecting for 10s: want %s; gc_percent %d, heap live %d, goal %d",
				what, gc.GCPercent, gc.HeapLiveBytes, gc.HeapGoalBytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGCPacerGoal arms the pacer in the test process: above a small live
// heap the goal is live + H, and once the live heap holds more than H,
// GOGC is back at exactly 100. Stopping restores the percent in force.
func TestGCPacerGoal(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own allocations move the live-heap reading")
	}
	const h = 64 << 20
	before := readGC().GCPercent
	headroom, stop := paceGC(h, func(string) (string, bool) { return "", false })
	defer stop()
	if headroom != h {
		t.Fatalf("paceGC armed headroom %d, want %d", headroom, h)
	}

	// A live heap of H/4 puts the goal past the runtime's minimum heap, so
	// the goal is the rule's and not the minimum's.
	held := make([]byte, h/4)
	gc := collectUntil(t, "gc_percent > 100 with H/4 live", func(gc gcMetrics) bool {
		return gc.GCPercent > 100 && gc.HeapLiveBytes >= h/4
	})
	if want := float64(gc.HeapLiveBytes + h); math.Abs(float64(gc.HeapGoalBytes)-want) > 0.1*want {
		t.Errorf("heap goal %d, want live %d + H %d within 10%%", gc.HeapGoalBytes, gc.HeapLiveBytes, h)
	}
	runtime.KeepAlive(held)

	held = make([]byte, 2*h)
	collectUntil(t, "gc_percent 100 with 2·H live", func(gc gcMetrics) bool { return gc.GCPercent == 100 })
	runtime.KeepAlive(held)

	stop()
	if got := readGC().GCPercent; got != before {
		t.Errorf("after stop gc_percent = %d, want the %d in force before", got, before)
	}
}

// TestGCPacerOff: an operator's GOGC or GOMEMLIMIT, or a server without a
// global budget, leaves the collector alone.
func TestGCPacerOff(t *testing.T) {
	grant := jobs.New(jobs.Config{GlobalBudget: 64 << 20}).DefaultGrant()
	unbudgeted := jobs.New(jobs.Config{}).DefaultGrant()
	for name, c := range map[string]struct {
		grant int
		env   string
	}{
		"GOGC":       {grant, "GOGC"},
		"GOMEMLIMIT": {grant, "GOMEMLIMIT"},
		"no budget":  {unbudgeted, ""},
	} {
		before := readGC().GCPercent
		headroom, stop := paceGC(c.grant, func(k string) (string, bool) { return "1", k == c.env })
		runtime.GC()
		if got := readGC().GCPercent; headroom != 0 || got != before {
			t.Errorf("%s: headroom %d, gc_percent %d -> %d; want 0 and unchanged", name, headroom, before, got)
		}
		stop()
	}
	if grant != 32<<20 {
		t.Errorf("DefaultGrant with a 64 MiB budget and default slots = %d, want 32 MiB", grant)
	}
}
