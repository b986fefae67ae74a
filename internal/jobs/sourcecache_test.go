package jobs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/tpch"
)

// This file pins the source cache's contract: cached sources are shared
// between concurrent jobs and never written, a hit computes what a miss
// computes, the cache is bounded in bytes, and a finished job lets go of
// its inputs.

// workloadDocs are the three benchmark workload shapes at toy size.
func workloadDocs(tb testing.TB) map[string][]byte {
	return map[string][]byte{
		"q7":       q7Doc(tb, 0.1, tpch.Q7DateHi, 0),
		"clicks":   clicksDoc(tb, 200, 24), // its Matches run as merge joins, which sort in place
		"textmine": textmineDoc(tb, 60),
	}
}

// sameBits reports whether two data sets hold the same values bit for bit
// (floats by their bits, not by ==).
func sameBits(a, b record.DataSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for f, v := range a[i] {
			w := b[i][f]
			if v.Kind() != w.Kind() || !v.Equal(w) ||
				(v.Kind() == record.KindFloat && math.Float64bits(v.AsFloat()) != math.Float64bits(w.AsFloat())) {
				return false
			}
		}
	}
	return true
}

// canonical renders a result as its sorted wire encodings: bags compare
// byte for byte whatever order the partitions finished in.
func canonical(out record.DataSet) []byte {
	rows := make([][]byte, len(out))
	for i, rec := range out {
		rows[i] = rec.AppendEncoded(nil)
	}
	sort.Slice(rows, func(a, b int) bool { return bytes.Compare(rows[a], rows[b]) < 0 })
	return bytes.Join(rows, nil)
}

// runDoc parses raw on s, applies the per-run overrides, runs the job and
// returns its canonical result and the spec it ran.
func runDoc(t *testing.T, s *Scheduler, raw []byte, dop, budget int) ([]byte, Spec) {
	t.Helper()
	spec, err := s.ParseScriptJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	spec.DOP, spec.MemoryBudget = dop, budget
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := waitTerminal(t, j, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(out), spec
}

// TestSourceCacheCanary proves the read-only contract instead of assuming
// it: each workload runs 50 times, eight at a time, over one cached
// instance of its sources (merge joins sort, Reduces group, UDFs copy and
// write), and afterwards the cached slabs still equal a fresh decode of
// the same bytes bit for bit. Under -race a single write into a shared
// record would also be reported as such.
func TestSourceCacheCanary(t *testing.T) {
	for name, raw := range workloadDocs(t) {
		t.Run(name, func(t *testing.T) {
			s := New(Config{MaxConcurrent: 4, DOP: 2})
			want, first := runDoc(t, s, raw, 0, 0)
			var wg sync.WaitGroup
			runs := make(chan int, 50)
			for i := 0; i < cap(runs); i++ {
				runs <- i
			}
			close(runs)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range runs {
						spec, err := s.ParseScriptJob(raw)
						if err != nil {
							t.Error(err)
							return
						}
						for src, ds := range spec.Sources {
							if len(ds) > 0 && &ds[0][0] != &first.Sources[src][0][0] {
								t.Errorf("source %q was decoded again instead of shared", src)
							}
						}
						j, err := s.Submit(spec)
						if err != nil {
							t.Error(err)
							return
						}
						out, _, err := j.Wait(context.Background())
						if err != nil || !bytes.Equal(canonical(out), want) {
							t.Errorf("run over the shared sources: err %v, result differs: %v", err, err == nil)
						}
					}
				}()
			}
			wg.Wait()
			fresh, err := ParseScriptJob(raw)
			if err != nil {
				t.Fatal(err)
			}
			for src, ds := range fresh.Sources {
				if !sameBits(first.Sources[src], ds) {
					t.Errorf("cached source %q no longer equals a fresh decode: a job wrote into shared rows", src)
				}
			}
			if m := s.Metrics(); m.SourceCacheMisses != int64(len(fresh.Sources)) || m.SourceCacheHits != 50*int64(len(fresh.Sources)) {
				t.Errorf("source cache hits/misses = %d/%d, want %d/%d", m.SourceCacheHits, m.SourceCacheMisses, 50*len(fresh.Sources), len(fresh.Sources))
			}
		})
	}
}

// TestSourceCacheHitMissDisabledIdentical: a job over freshly decoded
// sources, the same job over cached ones, and the job with caching off
// return the same bytes, at every DOP and with and without a budget small
// enough to spill.
func TestSourceCacheHitMissDisabledIdentical(t *testing.T) {
	for name, raw := range workloadDocs(t) {
		for _, dop := range []int{1, 2, 8, 17} {
			for _, budget := range []int{0, 256 << 10} {
				cached := New(Config{MaxConcurrent: 1})
				miss, spec := runDoc(t, cached, raw, dop, budget)
				if !strings.Contains(spec.Compile.Detail, "doc=miss sources=0/") {
					t.Fatalf("first parse: %s", spec.Compile.Detail)
				}
				hit, spec := runDoc(t, cached, raw, dop, budget)
				if !strings.Contains(spec.Compile.Detail, "doc=hit") {
					t.Fatalf("second parse: %s", spec.Compile.Detail)
				}
				off, _ := runDoc(t, New(Config{MaxConcurrent: 1, PlanCacheSize: -1}), raw, dop, budget)
				if !bytes.Equal(miss, hit) || !bytes.Equal(miss, off) {
					t.Errorf("%s dop=%d budget=%d: results differ (miss %d bytes, hit %d, cache off %d)",
						name, dop, budget, len(miss), len(hit), len(off))
				}
			}
		}
	}
}

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

	c.mu.Lock()
	for c.sources.len() > 0 {
		c.sources.evictOldest()
	}
	c.mu.Unlock()
	if st, resident, entries = c.counters(); resident != 0 || entries != 0 || st.sourceEvictions != 3 {
		t.Errorf("after evicting everything: resident %d, entries %d, evictions %d", resident, entries, st.sourceEvictions)
	}
}

// TestEvictedSourceOutlivesCache: a job holds its sources by reference, so
// evicting them (or their document) from the cache mid-flight neither
// breaks the job nor resurrects stale state; the next parse decodes again.
func TestEvictedSourceOutlivesCache(t *testing.T) {
	raw := workloadDocs(t)["clicks"]
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	want, _ := runDoc(t, s, raw, 0, 0)
	spec, err := s.ParseScriptJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	c := s.planCache
	c.mu.Lock()
	for c.sources.len() > 0 {
		c.sources.evictOldest()
	}
	c.mu.Unlock()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := waitTerminal(t, j, "job over evicted sources")
	if err != nil || !bytes.Equal(canonical(out), want) {
		t.Fatalf("job over evicted sources: err %v, same result %v", err, err == nil)
	}
	// The document memo now points at sources that are gone: the replay
	// must fall through to a full parse, not hand out half a Spec.
	again, spec := runDoc(t, s, raw, 0, 0)
	if !bytes.Equal(again, want) || !strings.Contains(spec.Compile.Detail, "doc=miss sources=0/3") {
		t.Fatalf("parse after eviction: %s, same result %v", spec.Compile.Detail, bytes.Equal(again, want))
	}
	if m := s.Metrics(); m.SourceCacheEvictions != 3 || m.SourceCacheEntries != 3 {
		t.Errorf("evictions %d entries %d, want 3 and 3", m.SourceCacheEvictions, m.SourceCacheEntries)
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

// TestFinishedJobHoldsNoInputs: whatever way a job ends, its Spec lets go of
// the source data, and what the job is still asked for keeps working.
func TestFinishedJobHoldsNoInputs(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	blocker, err := s.Submit(groupSpec(t, 7, 4000, 50))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(groupSpec(t, 8, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	failing, err := s.Submit(failingChainSpec(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	for label, j := range map[string]*Job{"succeeded": blocker, "cancelled while queued": queued, "failed": failing} {
		waitTerminal(t, j, label)
		if !j.State().Terminal() || j.spec.Sources != nil {
			t.Errorf("%s: state %v, still holds %d sources", label, j.State(), len(j.spec.Sources))
		}
		if j.Name() == "" && j.spec.Flow == nil {
			t.Errorf("%s: finish dropped more than the sources", label)
		}
	}
	if out, stats, err := blocker.Result(); err != nil || len(out) == 0 || stats == nil || blocker.Trace() == nil {
		t.Errorf("result of a finished job: %d rows, stats %v, err %v", len(out), stats, err)
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
	waitTerminal(t, run(0), "warm-up") // the cache's own copy is not growth
	before := liveHeap()
	retained := make([]*Job, 200)
	for i := range retained {
		retained[i] = run(i + 1)
		if i%2 == 1 {
			waitTerminal(t, retained[i-1], "job")
			waitTerminal(t, retained[i], "job")
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
	for i := 0; i < 2; i++ {
		spec, _ := s.ParseScriptJob([]byte(wordcountDoc))
		fmt.Println(spec.Compile.Detail)
	}
	// Output:
	// doc=miss sources=0/1 decoded_bytes=78
	// flow-cache hit doc=hit sources=1/1 decoded_bytes=0
}
