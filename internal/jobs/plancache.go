package jobs

// The plan cache makes repeated submissions of the same ScriptJob cheap:
// at sustained multi-tenant traffic the service re-sees the same job
// documents over and over, and without a cache every submission pays
// PactScript compilation, static analysis, row decoding, and — far worse —
// the full reordering enumeration of optimizer.RankAllNet. Four bounded
// LRUs, three filled by ingest (ingest.go; DESIGN.md "Ingest" says what
// each elides) and one by execute:
//
//   - *docs* maps the digest of a whole raw document to everything ingest
//     derived from it (the flow digest, the envelope's scalars, the digest
//     of each source), so a byte-identical replay costs one SHA-256 of the
//     body plus look-ups;
//   - *flows* maps a flow digest (script text, flow wiring, and the
//     resolved per-source cardinality hints) to a compiled dataflow.Flow
//     with effects already derived, skipping frontend.Compile and sca
//     analysis on a hit;
//   - *sources* maps the digest of one source's raw row bytes (under its
//     attribute layout) to the decoded rows, skipping the decode on a hit;
//     besides the entry capacity it is bounded by maxSourceCacheBytes of
//     resident data;
//   - *plans* maps (flow digest, budget tier, DOP) to the optimized
//     physical plan and its cost estimate, skipping RankAllNet in
//     Scheduler.execute and giving Submit's cost-based backpressure a
//     free estimate.
//
// Cached flows, plans and sources are shared read-only across concurrent
// jobs: neither the engine nor the optimizer mutates operators, plan nodes
// or source records after construction (TestPlanCacheConcurrentReuse and
// TestSourceCacheCanary pin this under -race). Sharing is safe for
// *correctness* regardless of the budget the plan was optimized for — a
// plan picked for one budget tier still computes the same output under
// another, the engine enforces the actual grant — which is why grants may
// be quantized to power-of-two tiers without affecting results, only plan
// quality within a tier.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// planKey identifies one optimized plan: the document digest plus the
// two knobs that change which plan the optimizer picks.
type planKey struct {
	hash string
	tier int
	dop  int
}

// planEntry is a cached optimized plan and the cost RankAllNet
// estimated for it (reused by cost-based backpressure).
type planEntry struct {
	plan *optimizer.PhysPlan
	cost float64
}

// budgetTier quantizes a budget grant to a power-of-two bucket so minor
// grant differences (which would change the optimal plan marginally at
// best) do not fragment the cache. Tier 0 is unbudgeted; tier n covers
// grants in (2^(n-2), 2^(n-1)].
func budgetTier(grant int) int {
	if grant <= 0 {
		return 0
	}
	return bits.Len(uint(grant-1)) + 1
}

// lruMap is a minimal LRU: get promotes, add evicts the coldest entry
// beyond cap. Not safe for concurrent use; PlanCache serializes access.
type lruMap struct {
	cap int
	ll  *list.List
	m   map[any]*list.Element
	// evicted, when set, is told every value that falls out.
	evicted func(val any)
}

type lruItem struct {
	key, val any
}

func newLRUMap(capacity int) *lruMap {
	return &lruMap{cap: capacity, ll: list.New(), m: map[any]*list.Element{}}
}

func (l *lruMap) get(k any) (any, bool) {
	el, ok := l.m[k]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts k→v, keeping an existing value for k if one is already
// cached (so two racing compilations of the same document converge on
// one shared instance), and returns the value now cached under k.
func (l *lruMap) add(k, v any) any {
	if el, ok := l.m[k]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruItem).val
	}
	l.m[k] = l.ll.PushFront(&lruItem{key: k, val: v})
	for l.ll.Len() > l.cap {
		l.evictOldest()
	}
	return v
}

func (l *lruMap) evictOldest() {
	oldest := l.ll.Remove(l.ll.Back()).(*lruItem)
	delete(l.m, oldest.key)
	if l.evicted != nil {
		l.evicted(oldest.val)
	}
}

func (l *lruMap) len() int { return l.ll.Len() }

// maxSourceCacheBytes caps the decoded rows the source cache keeps
// resident. A constant, not a knob: it is four times the largest document
// flowserve accepts (64 MiB), room for the few distinct data sets replayed
// traffic cycles through, and a source that alone exceeds it is decoded,
// used and never cached.
const maxSourceCacheBytes = 256 << 20

// docKey is the SHA-256 of a whole raw document, sourceKey of one source's
// attribute layout and raw row bytes (sourceLayout.digest).
type (
	docKey    [sha256.Size]byte
	sourceKey [sha256.Size]byte
)

// docEntry is what ingest derived from one raw document; with the flow and
// every source still cached, it rebuilds the document's Spec.
type docEntry struct {
	spec    Spec // Flow and Sources are left out: the memo must not pin them
	sources []namedSource
}

type namedSource struct {
	name string
	key  sourceKey
}

// PlanCache is the scheduler's cache of ingested documents, compiled
// flows, decoded sources and optimized plans. All methods are safe for
// concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	docs    *lruMap // docKey → docEntry
	flows   *lruMap // hash → *dataflow.Flow
	sources *lruMap // sourceKey → *source
	plans   *lruMap // planKey → planEntry

	// sourceBytes sums the resident bytes of the cached sources.
	sourceBytes int64
	stats       cacheStats
}

// cacheStats are the cache's counters as Metrics reports them.
type cacheStats struct {
	flowHits, flowMisses     int64
	planHits, planMisses     int64
	sourceHits, sourceMisses int64
	sourceEvictions          int64
}

func newPlanCache(capacity int) *PlanCache {
	c := &PlanCache{
		docs:    newLRUMap(capacity),
		flows:   newLRUMap(capacity),
		sources: newLRUMap(capacity),
		plans:   newLRUMap(capacity),
	}
	c.sources.evicted = func(val any) {
		c.sourceBytes -= val.(*source).resident
		c.stats.sourceEvictions++
	}
	return c
}

// replay rebuilds the Spec of a document ingested before, provided its
// flow and every one of its sources are still cached; it counts as one
// flow-cache hit and one source-cache hit per source. Anything missing
// leaves the counters alone and the document to parseDocument.
func (c *PlanCache) replay(key docKey) (Spec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.docs.get(key)
	if !ok {
		return Spec{}, false
	}
	e := v.(docEntry)
	spec := e.spec
	flow, ok := c.flows.get(spec.PlanKey)
	if !ok {
		return Spec{}, false
	}
	spec.Flow = flow.(*dataflow.Flow)
	spec.Sources = make(map[string]record.DataSet, len(e.sources))
	for _, ns := range e.sources {
		src, ok := c.sources.get(ns.key)
		if !ok {
			return Spec{}, false
		}
		spec.Sources[ns.name] = src.(*source).rows
	}
	c.stats.flowHits++
	c.stats.sourceHits += int64(len(e.sources))
	spec.Compile.Detail = flowCacheHit + compileDetail("hit", len(e.sources), len(e.sources), 0)
	return spec, true
}

func (c *PlanCache) storeDoc(key docKey, e docEntry) {
	e.spec.Flow, e.spec.Sources = nil, nil
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs.add(key, e)
}

func (c *PlanCache) source(key sourceKey) *source {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.sources.get(key)
	if !ok {
		c.stats.sourceMisses++
		return nil
	}
	c.stats.sourceHits++
	return v.(*source)
}

// storeSource caches a decoded source and returns the instance now cached
// under key (racing first submissions of the same bytes converge on one),
// evicting the coldest sources while the resident bytes exceed the ceiling.
func (c *PlanCache) storeSource(key sourceKey, src *source) *source {
	if src.resident > maxSourceCacheBytes {
		return src
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.sources.get(key); ok {
		return v.(*source)
	}
	c.sources.add(key, src)
	c.sourceBytes += src.resident
	for c.sourceBytes > maxSourceCacheBytes {
		c.sources.evictOldest()
	}
	return src
}

func (c *PlanCache) flow(hash string) (*dataflow.Flow, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.flows.get(hash)
	if !ok {
		c.stats.flowMisses++
		return nil, false
	}
	c.stats.flowHits++
	return v.(*dataflow.Flow), true
}

func (c *PlanCache) storeFlow(hash string, f *dataflow.Flow) *dataflow.Flow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flows.add(hash, f).(*dataflow.Flow)
}

func (c *PlanCache) plan(k planKey) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.plans.get(k)
	if !ok {
		c.stats.planMisses++
		return planEntry{}, false
	}
	c.stats.planHits++
	return v.(planEntry), true
}

// peekCost returns a cached plan's cost estimate without counting a hit
// or miss — Submit's backpressure check peeks, execute's lookup counts.
func (c *PlanCache) peekCost(k planKey) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.plans.get(k)
	if !ok {
		return 0, false
	}
	return v.(planEntry).cost, true
}

func (c *PlanCache) storePlan(k planKey, e planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans.add(k, e)
}

// counters snapshots the hit/miss/eviction counters and the source
// cache's gauges.
func (c *PlanCache) counters() (st cacheStats, sourceBytes int64, sourceEntries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.sourceBytes, c.sources.len()
}

// scriptJobHash digests everything that determines the compiled flow and
// its optimized plans (script text, flow wiring, resolved per-source
// hints) — but not the inline data rows themselves, so submissions that
// differ only in payload values share cache entries, while a data set
// large enough to move the cardinality hints gets its own.
func scriptJobHash(doc *ScriptJob, hints map[string]dataflow.Hints) string {
	h := sha256.New()
	io.WriteString(h, doc.Script)
	h.Write([]byte{0})
	// Struct field order makes this marshaling deterministic.
	json.NewEncoder(h).Encode(doc.Flow)
	for _, src := range doc.Flow.Sources {
		hint := hints[src.Name]
		fmt.Fprintf(h, "%s|%g|%g\n", src.Name, hint.Records, hint.AvgWidthBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}
