package jobs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"blackboxflow/internal/dataflow"
)

func TestBudgetTier(t *testing.T) {
	cases := []struct{ grant, tier int }{
		{-1, 0}, {0, 0}, // unbudgeted
		{1, 1},
		{2, 2},
		{3, 3}, {4, 3},
		{5, 4}, {8, 4},
		{1 << 20, 21}, {1<<20 + 1, 22},
	}
	for _, c := range cases {
		if got := budgetTier(c.grant); got != c.tier {
			t.Errorf("budgetTier(%d) = %d, want %d", c.grant, got, c.tier)
		}
	}
}

func TestLRUMapEvictsColdest(t *testing.T) {
	l := newLRUMap(2)
	l.add("a", 1)
	l.add("b", 2)
	l.get("a") // promote a; b is now coldest
	l.add("c", 3)
	if _, ok := l.get("b"); ok {
		t.Error("b should have been evicted as the coldest entry")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := l.get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}
	if l.len() != 2 {
		t.Errorf("len = %d, want 2", l.len())
	}
	// add on an existing key keeps the first value (racing compilations
	// converge on one shared instance).
	if got := l.add("a", 99); got != 1 {
		t.Errorf("re-add returned %v, want the cached 1", got)
	}
}

// TestScriptJobHashSensitivity: the digest must ignore payload values (same
// shape shares cache entries) but see everything that changes the compiled
// flow or its plans — script text, wiring, and resolved cardinality hints.
func TestScriptJobHashSensitivity(t *testing.T) {
	hashOf := func(doc string) string {
		t.Helper()
		s := New(Config{MaxConcurrent: 1})
		spec, err := s.ParseScriptJob([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if spec.PlanKey == "" {
			t.Fatal("ParseScriptJob returned no PlanKey")
		}
		return spec.PlanKey
	}

	base := hashOf(wordcountDoc)
	if got := hashOf(wordcountDoc); got != base {
		t.Error("same document hashed differently")
	}
	// Same row count with different payload values: same resolved hints,
	// same plan space — must share the digest.
	samePlan := strings.Replace(wordcountDoc,
		`[["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]`,
		`[["x", null], ["y", null], ["x", null], ["z", null], ["x", null], ["y", null]]`, 1)
	if got := hashOf(samePlan); got != base {
		t.Error("payload-only change altered the digest")
	}
	// Fewer rows move the resolved Records hint: new digest.
	fewerRows := strings.Replace(wordcountDoc,
		`[["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]`,
		`[["a", null], ["b", null]]`, 1)
	if got := hashOf(fewerRows); got == base {
		t.Error("changed cardinality did not alter the digest")
	}
	// A different script compiles a different flow: new digest.
	otherScript := strings.Replace(wordcountDoc, "count(g, 0)", "sum(g, 0)", 1)
	if got := hashOf(otherScript); got == base {
		t.Error("changed script did not alter the digest")
	}
	// Different wiring (key cardinality hint): new digest.
	otherHint := strings.Replace(wordcountDoc, `"key_cardinality": 3`, `"key_cardinality": 4`, 1)
	if got := hashOf(otherHint); got == base {
		t.Error("changed flow hint did not alter the digest")
	}
}

// TestPlanCacheHitsSkipRecompilation: the second parse of a document reuses
// the compiled flow (same pointer), and the second execution reuses the
// optimized plan — both visible in Metrics.
func TestPlanCacheHitsSkipRecompilation(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	run := func() Spec {
		t.Helper()
		spec, err := s.ParseScriptJob([]byte(wordcountDoc))
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return spec
	}
	first := run()
	second := run()
	if first.Flow != second.Flow {
		t.Error("second parse did not reuse the cached compiled flow")
	}
	m := s.Metrics()
	if m.FlowCacheHits != 1 || m.FlowCacheMisses != 1 {
		t.Errorf("flow cache hits/misses = %d/%d, want 1/1", m.FlowCacheHits, m.FlowCacheMisses)
	}
	if m.PlanCacheHits != 1 || m.PlanCacheMisses != 1 {
		t.Errorf("plan cache hits/misses = %d/%d, want 1/1", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

// TestPlanCacheDisabled: a negative PlanCacheSize turns the cache off and
// ParseScriptJob degrades to the package-level path (no PlanKey).
func TestPlanCacheDisabled(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 2, PlanCacheSize: -1})
	spec, err := s.ParseScriptJob([]byte(wordcountDoc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.PlanKey != "" {
		t.Errorf("PlanKey = %q with caching disabled, want empty", spec.PlanKey)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.FlowCacheHits+m.FlowCacheMisses+m.PlanCacheHits+m.PlanCacheMisses != 0 {
		t.Errorf("cache counters moved with caching disabled: %+v", m)
	}
}

// TestPlanCacheConcurrentReuse pins the sharing-safety claim in
// plancache.go's package comment: many goroutines parsing, submitting, and
// running the same document — all sharing one compiled flow, one optimized
// plan and one decoded source — produce identical results under -race.
func TestPlanCacheConcurrentReuse(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, DOP: 2})
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				spec, err := s.ParseScriptJob([]byte(wordcountDoc))
				if err != nil {
					errs <- err
					return
				}
				j, err := s.Submit(spec)
				if err != nil {
					errs <- err
					return
				}
				out, _, err := j.Wait(context.Background())
				if err != nil {
					errs <- err
					return
				}
				for _, rec := range out {
					if got := rec.Field(1).AsInt(); got != want[rec.Field(0).AsString()] {
						errs <- fmt.Errorf("count[%q] = %d, want %d",
							rec.Field(0).AsString(), got, want[rec.Field(0).AsString()])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.FlowCacheMisses+m.PlanCacheMisses < 1 {
		t.Error("no cache misses recorded; the test did not exercise population")
	}
	if m.FlowCacheHits == 0 || m.PlanCacheHits == 0 || m.SourceCacheHits == 0 {
		t.Errorf("no cache hits across %d identical submissions: %+v", goroutines*perG, m)
	}
	// Racing first submissions may each decode the source, but converge on
	// one cached instance; every parse either hit or missed exactly once.
	if m.SourceCacheEntries != 1 || m.SourceCacheHits+m.SourceCacheMisses != goroutines*perG {
		t.Errorf("source cache: %d entries, %d hits + %d misses over %d parses",
			m.SourceCacheEntries, m.SourceCacheHits, m.SourceCacheMisses, goroutines*perG)
	}
}

// TestPlanCacheConcurrentEvictionFault hammers a capacity-2 PlanCache from
// 8 goroutines with 8 overlapping keys, so every operation races against
// eviction on all four LRU tables. The assertions are deliberately thin —
// whatever a get returns must be a value some store put there — because the
// race detector is the real check here: this pins the locking discipline
// around lruMap, which is not concurrency-safe on its own.
func TestPlanCacheConcurrentEvictionFault(t *testing.T) {
	c := newPlanCache(2)
	flows := make([]*dataflow.Flow, 8)
	srcs := make([]*source, 8)
	for i := range flows {
		flows[i] = dataflow.NewFlow()
		srcs[i] = &source{wireSize: i, resident: int64(i + 1)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (g + i) % 8
				hash := fmt.Sprintf("h%d", k)
				pk := planKey{hash: hash, tier: k % 3, dop: 2}
				dk, sk := docKey{byte(k)}, sourceKey{byte(k)}
				switch i % 6 {
				case 0:
					if got := c.storeFlow(hash, flows[k]); got != flows[k] {
						t.Errorf("storeFlow(%s) returned a flow stored under another key", hash)
					}
				case 1:
					if f, ok := c.flow(hash); ok && f != flows[k] {
						t.Errorf("flow(%s) returned a flow stored under another key", hash)
					}
				case 2:
					c.storePlan(pk, planEntry{cost: float64(k)})
				case 3:
					if e, ok := c.plan(pk); ok && e.cost != float64(k) {
						t.Errorf("plan(%v) cost = %g, want %d", pk, e.cost, k)
					}
					c.peekCost(pk)
				case 4:
					c.storeDoc(dk, docEntry{spec: Spec{PlanKey: hash}, sources: []namedSource{{"s", sk}}})
					// A replay is all or nothing: the flow and the source
					// it hands out are the ones stored under its keys.
					if spec, ok := c.replay(dk); ok && (spec.Flow != flows[k] || spec.PlanKey != hash || len(spec.Sources) != 1) {
						t.Errorf("replay(%d) = flow %p key %s sources %d", k, spec.Flow, spec.PlanKey, len(spec.Sources))
					}
				case 5:
					if got := c.storeSource(sk, srcs[k]); got != srcs[k] {
						t.Errorf("storeSource(%d) returned a source stored under another key", k)
					}
					if got := c.source(sk); got != nil && got != srcs[k] {
						t.Errorf("source(%d) returned a source stored under another key", k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.flows.len(); n > 2 {
		t.Errorf("flow cache holds %d entries, capacity 2", n)
	}
	if n := c.plans.len(); n > 2 {
		t.Errorf("plan cache holds %d entries, capacity 2", n)
	}
	// The byte gauge must equal what is resident after any interleaving of
	// inserts and evictions.
	_, resident, entries := c.counters()
	var want int64
	for k := range srcs {
		if _, ok := c.sources.m[sourceKey{byte(k)}]; ok {
			want += srcs[k].resident
		}
	}
	if entries > 2 || resident != want {
		t.Errorf("source cache holds %d entries (capacity 2) accounting %d bytes, resident %d", entries, resident, want)
	}
}

// TestPlanCacheEvictionUnderConcurrentSubmit runs 8 goroutines submitting
// five distinct documents through a scheduler whose plan cache holds only
// two entries, so compilation, cache population, and eviction all race with
// live submissions — and every job must still compute the right answer.
func TestPlanCacheEvictionUnderConcurrentSubmit(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, DOP: 2, PlanCacheSize: 2})
	defer s.Shutdown(context.Background())

	doc := func(variant int) string {
		return fmt.Sprintf(strings.Replace(wordcountDoc, `"key_cardinality": 3`,
			`"key_cardinality": %d`, 1), variant+3)
	}
	want := map[string]int64{"a": 3, "b": 2, "c": 1}

	const goroutines, perG = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				spec, err := s.ParseScriptJob([]byte(doc((g + i) % 5)))
				if err != nil {
					errs <- err
					return
				}
				j, err := s.Submit(spec)
				if err != nil {
					errs <- err
					return
				}
				out, _, err := j.Wait(context.Background())
				if err != nil {
					errs <- err
					return
				}
				for _, rec := range out {
					if got := rec.Field(1).AsInt(); got != want[rec.Field(0).AsString()] {
						errs <- fmt.Errorf("count[%q] = %d, want %d",
							rec.Field(0).AsString(), got, want[rec.Field(0).AsString()])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	// Five distinct flow hashes through a two-entry cache: misses are
	// guaranteed (evictions), and re-submissions of a still-resident
	// variant should land some hits too.
	if m.FlowCacheMisses <= 5 {
		t.Errorf("flow cache misses = %d; want > 5 (evictions forcing recompiles)", m.FlowCacheMisses)
	}
	if m.FlowCacheHits == 0 {
		t.Error("no flow cache hits at all across overlapping submissions")
	}
	// All five documents carry the same rows, so the source outlives the
	// flows that churn around it: one entry, never evicted.
	if m.SourceCacheEntries != 1 || m.SourceCacheEvictions != 0 || m.SourceCacheHits == 0 {
		t.Errorf("source cache: %d entries, %d evictions, %d hits", m.SourceCacheEntries, m.SourceCacheEvictions, m.SourceCacheHits)
	}
}
