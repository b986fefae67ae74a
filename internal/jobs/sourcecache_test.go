package jobs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"blackboxflow/internal/workloads/tpch"
)

// This file pins the source cache's contract: cached sources are shared
// between concurrent jobs and never written, a hit computes what a miss
// computes, the cache is bounded in bytes, and a finished job lets go of
// its inputs.

// TestSourceCacheByteCeiling drives the byte bound with sources of made-up
// sizes: past the ceiling the coldest go first, a source larger than the
// ceiling is never inserted, and the byte gauge returns to zero.
func TestSourceCacheByteCeiling(t *testing.T) {
	c := newPlanCache(16)
	const third = maxSourceCacheBytes / 3
	key := func(i int) sourceKey { return sourceKey{byte(i)} }
	a, b, d := &source{resident: third}, &source{resident: third}, &source{resident: third + 2}
	c.storeSource(key(1), a)
	c.storeSource(key(2), b)
	if c.source(key(1)) != a { // a is now warmer than b
		t.Fatal("a not cached")
	}
	c.storeSource(key(3), d) // one byte over the ceiling
	if c.source(key(2)) != nil {
		t.Error("the coldest source survived an insert past the ceiling")
	}
	if c.source(key(1)) != a || c.source(key(3)) != d {
		t.Error("a warmer source was evicted instead of the coldest")
	}
	st, resident, entries := c.counters()
	if st.sourceEvictions != 1 || resident != 2*third+2 || entries != 2 {
		t.Errorf("after one eviction: evictions %d, resident %d, entries %d", st.sourceEvictions, resident, entries)
	}

	huge := &source{resident: maxSourceCacheBytes + 1}
	if got := c.storeSource(key(4), huge); got != huge {
		t.Error("an over-ceiling source was swapped for another")
	}
	if _, resident, entries = c.counters(); entries != 2 || resident != 2*third+2 {
		t.Errorf("an over-ceiling source was inserted: resident %d, entries %d", resident, entries)
	}

	// Racing first submissions of the same bytes converge on one instance
	// and are charged once.
	if got := c.storeSource(key(1), &source{resident: third}); got != a {
		t.Error("a second decode of cached bytes replaced the cached instance")
	}
	if _, resident, _ = c.counters(); resident != 2*third+2 {
		t.Errorf("a duplicate insert was charged: resident %d", resident)
	}

	evict(c, c.sources, -1)
	if st, resident, entries = c.counters(); resident != 0 || entries != 0 || st.sourceEvictions != 3 {
		t.Errorf("after evicting everything: resident %d, entries %d, evictions %d", resident, entries, st.sourceEvictions)
	}
}

// TestSourceCacheSharing: what is addressed is the decoded form. Documents
// with the same rows under different scripts (the q7.coldplan shape) share
// their sources while missing the document and flow caches; the same rows
// under other attribute names, or at other global positions, do not.
func TestSourceCacheSharing(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	a, err := s.ParseScriptJob(q7Doc(t, 0.05, tpch.Q7DateHi, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ParseScriptJob(q7Doc(t, 0.05, tpch.Q7DateHi+1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// No "flow-cache hit " in front: the second script was compiled.
	if a.PlanKey == b.PlanKey || b.Compile.Detail != "doc=miss sources=6/6 decoded_bytes=0" {
		t.Fatalf("second script over the same rows: %s", b.Compile.Detail)
	}
	for name, ds := range a.Sources {
		if &ds[0][0] != &b.Sources[name][0][0] {
			t.Errorf("source %q decoded twice for two scripts over the same rows", name)
		}
	}
	m := s.Metrics()
	if m.FlowCacheHits != 0 || m.FlowCacheMisses != 2 || m.SourceCacheHits != 6 || m.SourceCacheMisses != 6 || m.SourceCacheEntries != 6 {
		t.Errorf("flow hits/misses %d/%d, source hits/misses/entries %d/%d/%d",
			m.FlowCacheHits, m.FlowCacheMisses, m.SourceCacheHits, m.SourceCacheMisses, m.SourceCacheEntries)
	}
	if m.SourceCacheBytes <= 0 {
		t.Errorf("source cache reports %d resident bytes", m.SourceCacheBytes)
	}

	s = New(Config{MaxConcurrent: 1})
	for i, doc := range []string{
		wordcountDoc,
		strings.Replace(wordcountDoc, `"attrs": ["word", "n"]`, `"attrs": ["w", "n"]`, 1),
		// The same source behind another one: its fields land two places
		// further right in the global record.
		strings.Replace(wordcountDoc, `"sources": [`, `"sources": [{"name": "other", "attrs": ["x", "y"]}, `, 1),
	} {
		doc = strings.Replace(doc, `[["word"]]`, `[["`+[]string{"word", "w", "word"}[i]+`"]]`, 1)
		if _, err := s.ParseScriptJob([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.SourceCacheHits != 0 || m.SourceCacheEntries != 3 {
		t.Errorf("same rows under three layouts: %d hits, %d entries, want 0 and 3", m.SourceCacheHits, m.SourceCacheEntries)
	}
}

// TestFinishedJobsDoNotPinDecodedRows measures what the registry of a
// server retains: 200 finished jobs of distinct documents (the Q7 SF 4 data
// under 200 scripts; flowserve's default -max-jobs of 4096 would keep them
// all) are held while the live heap is read after a GC. Before finish
// dropped spec.Sources every retained job pinned its own ≈10 MB of decoded
// rows; now the rows live once, in the source cache, and a retained job is
// its trace, result and statistics.
func TestFinishedJobsDoNotPinDecodedRows(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("200 jobs over a Q7 SF 4 document")
	}
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	s := New(Config{MaxConcurrent: 2, DOP: 2})
	// A shipdate window that ends before it starts: the script (and so the
	// document, flow and plan) is new each time, the data is not, and the
	// joins have nothing to do.
	const hiToken = `d \u003c= 1000` // the bound as json.Marshal writes it; Q7DateLo is 8766
	base := q7Doc(t, 4, 1000, 0)
	if bytes.Count(base, []byte(hiToken)) != 1 {
		t.Fatal("the shipdate bound does not appear exactly once in the document")
	}
	run := func(variant int) *Job {
		spec, err := s.ParseScriptJob(bytes.Replace(base, []byte(hiToken), []byte(fmt.Sprint(hiToken[:len(hiToken)-4], 1000+variant)), 1))
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	waitTerminal(t, run(0)) // the cache's own copy is not growth
	before := liveHeap()
	retained := make([]*Job, 200)
	for i := range retained {
		retained[i] = run(i + 1)
		if i%2 == 1 {
			waitTerminal(t, retained[i-1])
			waitTerminal(t, retained[i])
		}
	}
	perJob := float64(liveHeap()-before) / float64(len(retained))
	runtime.KeepAlive(retained)
	t.Logf("live heap growth per retained finished job: %.0f KiB (source cache: %d KiB resident)",
		perJob/1024, s.Metrics().SourceCacheBytes>>10)
	// The parent retained ≈10 MB per job on this document; a fifth of that
	// is the bar, the measured figure is two orders of magnitude below it.
	if perJob > 2<<20 {
		t.Errorf("each retained job pins %.1f MiB, want under 2 MiB", perJob/(1<<20))
	}
}

func ExampleScheduler_ParseScriptJob_compileDetail() {
	s := New(Config{MaxConcurrent: 1})
	for i := 0; i < 3; i++ {
		spec, _ := s.ParseScriptJob([]byte(wordcountDoc))
		fmt.Println(spec.Compile.Detail)
	}
	// Output:
	// doc=miss sources=0/1 decoded_bytes=78
	// flow-cache hit doc=miss sources=1/1 decoded_bytes=0
	// flow-cache hit doc=hit sources=1/1 decoded_bytes=0
}
