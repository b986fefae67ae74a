package jobs

// The plan cache makes repeated submissions of the same ScriptJob cheap:
// at sustained multi-tenant traffic the service re-sees the same job
// documents over and over, and without a cache every submission pays
// PactScript compilation, static analysis, and — far worse — the full
// reordering enumeration of optimizer.RankAllNet. The cache has two
// levels, both bounded LRUs:
//
//   - the *flow* level maps a document digest (script text, flow wiring,
//     and the resolved per-source cardinality hints) to a compiled
//     dataflow.Flow with effects already derived, skipping
//     frontend.Compile and sca analysis on a hit
//     (Scheduler.ParseScriptJob);
//   - the *plan* level maps (digest, budget tier, DOP) to the optimized
//     physical plan and its cost estimate, skipping RankAllNet in
//     Scheduler.execute and giving Submit's cost-based backpressure a
//     free estimate.
//
// A third, purely latency-motivated memo maps the digest of the raw
// document bytes to the flow-level digest: re-submitting a byte-identical
// document (the dominant pattern — dashboards and cron jobs replay the
// exact same JSON) skips hint resolution and the deterministic re-marshal
// inside scriptJobHash, leaving JSON decoding of the payload as the only
// per-submission parse cost. Documents that differ anywhere (even in
// payload values) miss the memo and fall through to the full digest,
// which still collapses payload-only variants onto one cache entry.
//
// Cached flows and plans are shared read-only across concurrent jobs:
// neither the engine nor the optimizer mutates operators or plan nodes
// after construction (TestPlanCacheConcurrentReuse pins this under
// -race). Sharing is safe for *correctness* regardless of the budget the
// plan was optimized for — a plan picked for one budget tier still
// computes the same output under another, the engine enforces the actual
// grant — which is why grants may be quantized to power-of-two tiers
// without affecting results, only plan quality within a tier.

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
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.m, oldest.Value.(*lruItem).key)
	}
	return v
}

func (l *lruMap) len() int { return l.ll.Len() }

// PlanCache is the scheduler's two-level cache of compiled flows and
// optimized plans. All methods are safe for concurrent use.
type PlanCache struct {
	mu    sync.Mutex
	flows *lruMap // hash → *dataflow.Flow
	plans *lruMap // planKey → planEntry
	docs  *lruMap // raw-document digest → flow-level hash

	flowHits, flowMisses int64
	planHits, planMisses int64
}

func newPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		flows: newLRUMap(capacity),
		plans: newLRUMap(capacity),
		docs:  newLRUMap(capacity),
	}
}

func (c *PlanCache) flow(hash string) (*dataflow.Flow, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.flows.get(hash)
	if !ok {
		c.flowMisses++
		return nil, false
	}
	c.flowHits++
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
		c.planMisses++
		return planEntry{}, false
	}
	c.planHits++
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

// docKey returns the memoized flow-level hash for a raw document digest.
// Uncounted: a memo hit still registers as a flow-cache hit right after.
func (c *PlanCache) docKey(rawDigest string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.docs.get(rawDigest)
	if !ok {
		return "", false
	}
	return v.(string), true
}

func (c *PlanCache) storeDocKey(rawDigest, hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs.add(rawDigest, hash)
}

func (c *PlanCache) counters() (flowHits, flowMisses, planHits, planMisses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flowHits, c.flowMisses, c.planHits, c.planMisses
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
