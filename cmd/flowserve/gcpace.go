package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// minHeap is the runtime's minimum heap goal at GOGC 100. The runtime
// scales it with GOGC, so the rule below divides by at least this much:
// a tiny live heap must not lift the goal past the headroom through it.
const minHeap = 4 << 20

// gcPercentFor is the GOGC that puts the next heap goal at
// live + max(live, headroom): 100·headroom/live, never below Go's default
// of 100, and capped at the largest percent the runtime stores (an int32;
// above it the percent would wrap negative and turn the collector off).
// live is what GOGC is a percentage of: the heap the last cycle marked
// plus the stacks and globals it scanned.
func gcPercentFor(live, headroom uint64) int {
	p := headroom / (max(live, minHeap) / 100)
	return int(min(max(p, 100), math.MaxInt32))
}

// gcPacer re-sets GOGC after every collection so that the next cycle
// leaves headroom bytes of growth above the live heap until the live heap
// itself is that large. A sentinel object with a cleanup notices each
// cycle: the cleanup runs once the collector finds the sentinel dead,
// paces, and registers a fresh sentinel.
type gcPacer struct {
	headroom uint64
	mu       sync.Mutex // orders a cycle against stop's restore
	stopped  bool
	live     []metrics.Sample
}

// gcSentinel holds a pointer so the allocator never batches it with other
// tiny objects, which could keep its cleanup from running.
type gcSentinel struct{ _ *byte }

func (p *gcPacer) arm() {
	runtime.AddCleanup(&gcSentinel{}, (*gcPacer).cycle, p)
}

func (p *gcPacer) cycle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	metrics.Read(p.live)
	live := p.live[0].Value.Uint64() + p.live[1].Value.Uint64() + p.live[2].Value.Uint64()
	debug.SetGCPercent(gcPercentFor(live, p.headroom))
	p.arm()
}

// paceGC starts pacing the collector with one default grant of headroom
// and returns the headroom armed and a function that stops the pacer and
// restores the percent in force before it. The pacer stays off (headroom
// 0) without a grant, or when GOGC or GOMEMLIMIT in the environment
// (looked up through lookupEnv) shows the operator tuning the collector.
func paceGC(grant int, lookupEnv func(string) (string, bool)) (headroom uint64, stop func()) {
	_, gogc := lookupEnv("GOGC")
	_, limit := lookupEnv("GOMEMLIMIT")
	if grant <= 0 || gogc || limit {
		return 0, func() {}
	}
	p := &gcPacer{headroom: uint64(grant), live: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/stack:bytes"}, {Name: "/gc/scan/globals:bytes"},
	}}
	before := debug.SetGCPercent(gcPercentFor(0, p.headroom))
	p.arm()
	return p.headroom, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.stopped = true
		debug.SetGCPercent(before)
	}
}
