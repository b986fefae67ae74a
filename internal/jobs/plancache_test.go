package jobs

import (
	"bytes"
	"fmt"
	"slices"
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
		spec, err := New(Config{MaxConcurrent: 1}).ParseScriptJob([]byte(doc))
		if err != nil || spec.PlanKey == "" {
			t.Fatalf("ParseScriptJob: plan key %q, %v", spec.PlanKey, err)
		}
		return spec.PlanKey
	}
	rows := `[["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]`
	base := hashOf(wordcountDoc)
	for _, c := range []struct {
		what, doc string
		same      bool
	}{
		{"the same document", wordcountDoc, true},
		// Same row count, other payload values: same resolved hints, same
		// plan space.
		{"a payload-only change", strings.Replace(wordcountDoc, rows, `[["x", null], ["y", null], ["x", null], ["z", null], ["x", null], ["y", null]]`, 1), true},
		// Fewer rows move the resolved Records hint.
		{"a changed cardinality", strings.Replace(wordcountDoc, rows, `[["a", null], ["b", null]]`, 1), false},
		{"a changed script", strings.Replace(wordcountDoc, "count(g, 0)", "sum(g, 0)", 1), false},
		{"a changed flow hint", strings.Replace(wordcountDoc, `"key_cardinality": 3`, `"key_cardinality": 4`, 1), false},
	} {
		if got := hashOf(c.doc); (got == base) != c.same {
			t.Errorf("%s: digest equal to the base's %v, want %v", c.what, got == base, c.same)
		}
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
				doc, sk := []byte(fmt.Sprintf("doc %d", k)), sourceKey{byte(k)}
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
				case 4:
					fp := c.fingerprint(doc)
					e := c.lookupDoc(fp, doc)
					if e == nil {
						e = &docEntry{doc: doc, fp: fp}
					}
					c.storeDoc(e, Spec{PlanKey: hash}, []namedSource{{"s", sk}})
					// A replay is all or nothing: the flow and the source
					// it hands out are the ones stored under its keys.
					if e := c.lookupDoc(fp, doc); e != nil {
						if spec, ok := c.replay(e); ok && (spec.Flow != flows[k] || spec.PlanKey != hash || len(spec.Sources) != 1) {
							t.Errorf("replay(%d) = flow %p key %s sources %d", k, spec.Flow, spec.PlanKey, len(spec.Sources))
						}
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
	if c.flows.len() > 2 || c.plans.len() > 2 {
		t.Errorf("flow and plan caches hold %d and %d entries, capacity 2", c.flows.len(), c.plans.len())
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
	// So must the document memo's, and its fingerprint index must name
	// exactly the entries the memo holds.
	docBytes, indexed := int64(0), 0
	for _, same := range c.byFP {
		for _, e := range same {
			if _, ok := c.docs.m[e]; !ok {
				t.Errorf("fingerprint index holds an evicted entry for %q", e.doc)
			}
			docBytes += int64(len(e.doc))
			indexed++
		}
	}
	if n := c.docs.len(); n > 2 || n != indexed || docBytes != c.docBytes {
		t.Errorf("document memo holds %d entries (capacity 2, %d indexed) accounting %d bytes, resident %d", n, indexed, c.docBytes, docBytes)
	}
}

// evict evicts the n coldest entries of l, every entry if n < 0, under
// c's lock.
func evict(c *PlanCache, l *lruMap, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ; n != 0 && l.len() > 0; n-- {
		l.evictOldest()
	}
}

// parseWords parses doc on s and reports whether the document memo replayed
// it, and the words its source holds.
func parseWords(t *testing.T, s *Scheduler, doc []byte) (replayed bool, words []string) {
	t.Helper()
	spec, err := s.ParseScriptJob(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range spec.Sources["words"] {
		words = append(words, rec[0].AsString())
	}
	return strings.Contains(spec.Compile.Detail, "doc=hit"), words
}

// TestDocMemoCopiesOnSecondSighting: a document parsed once leaves only its
// fingerprint in the doorkeeper; the second parse takes the memo's copy and
// the third replays. Traffic that cycles through more documents than the
// memo has entries, so that none comes back while the memo could hold it,
// never leaves a copy.
func TestDocMemoCopiesOnSecondSighting(t *testing.T) {
	c := newPlanCache(4)
	doc := wordsDoc([]string{"a", "b"})
	for i, want := range []string{"doc=miss sources=0/1", "doc=miss sources=1/1", "doc=hit"} {
		spec, err := ingest(c, doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(spec.Compile.Detail, want) {
			t.Errorf("parse %d: %q, want %q", i+1, spec.Compile.Detail, want)
		}
		if copies := c.docs.len(); copies != min(i, 1) {
			t.Errorf("after parse %d the memo holds %d copies, want %d", i+1, copies, min(i, 1))
		}
	}

	c = newPlanCache(4)
	docs := make([][]byte, 8) // twice the memo's entries
	for i := range docs {
		docs[i] = wordsDoc([]string{fmt.Sprint(i)})
	}
	for round := 0; round < 3; round++ {
		for _, doc := range docs {
			if _, err := ingest(c, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.docs.len() != 0 || c.docBytes != 0 || len(c.seenOnce) != 4 {
		t.Errorf("cycling 8 documents through a 4-entry memo left %d copies (%d bytes) and %d fingerprints, want none and 4",
			c.docs.len(), c.docBytes, len(c.seenOnce))
	}
}

// TestDocMemoOwnsItsCopy: a caller that rewrites its buffer after a parse
// gets the new bytes parsed, never the Spec of what the buffer held before,
// and the first document still replays from the memo's own copy.
func TestDocMemoOwnsItsCopy(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	first := []string{"a", "b", "a", "c", "a", "b"}
	buf := wordsDoc(first)
	orig := bytes.Clone(buf)
	parseWords(t, s, buf)
	parseWords(t, s, buf) // the second sighting takes the memo's copy
	at := bytes.Index(buf, []byte(`["a", null]`))
	buf[at+2] = 'z'
	if replayed, words := parseWords(t, s, buf); replayed || words[0] != "z" {
		t.Errorf("rewritten buffer: replayed %v, words %v", replayed, words)
	}
	if replayed, words := parseWords(t, s, orig); !replayed || !slices.Equal(words, first) {
		t.Errorf("first document again: replayed %v, words %v", replayed, words)
	}
}

// TestDocMemoOneCopyPerDocument: two first parses of one document that both
// miss store one entry, not two. The second store finds the first's entry by
// its bytes and renews it with its derivation; the byte gauge counts one
// copy and falls back to zero when the entry is evicted.
func TestDocMemoOneCopyPerDocument(t *testing.T) {
	doc := wordsDoc([]string{"a", "b"})
	holdsOne := func(t *testing.T, c *PlanCache) {
		t.Helper()
		fp := c.fingerprint(doc)
		if c.docs.len() != 1 || len(c.byFP[fp]) != 1 || c.docBytes != int64(len(doc)) {
			t.Errorf("memo holds %d entries (%d under the fingerprint) and %d bytes, want 1 and %d",
				c.docs.len(), len(c.byFP[fp]), c.docBytes, len(doc))
		}
	}
	t.Run("two stores", func(t *testing.T) {
		c := newPlanCache(4)
		fp := c.fingerprint(doc)
		c.storeDoc(&docEntry{doc: bytes.Clone(doc), fp: fp}, Spec{PlanKey: "first"}, nil)
		c.storeDoc(&docEntry{doc: bytes.Clone(doc), fp: fp}, Spec{PlanKey: "second"}, nil)
		holdsOne(t, c)
		if e := c.lookupDoc(fp, doc); e == nil || e.spec.PlanKey != "second" {
			t.Errorf("the entry does not hold the later derivation: %v", e)
		}
		evict(c, c.docs, 1)
		if c.docBytes != 0 || len(c.byFP) != 0 {
			t.Errorf("after eviction: %d bytes, %d fingerprints", c.docBytes, len(c.byFP))
		}
	})
	t.Run("concurrent ingests", func(t *testing.T) {
		c := newPlanCache(4)
		if _, err := ingest(c, doc); err != nil { // the prior sighting
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if spec, err := ingest(c, doc); err != nil || len(spec.Sources["words"]) != 2 {
					t.Errorf("ingest: %v, %d rows", err, len(spec.Sources["words"]))
				}
			}()
		}
		wg.Wait()
		holdsOne(t, c)
	})
}

// TestDocMemoFingerprintCollision: documents that differ only between the
// bytes their fingerprint samples share a fingerprint; a one-byte change
// there misses, and both documents then replay, each as itself. The
// doorkeeper knows fingerprints, not bytes, so the second document earns
// its copy at its first sighting.
func TestDocMemoFingerprintCollision(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	words := slices.Repeat([]string{"a"}, 4*docSample/len(`["a", null], `))
	a := wordsDoc(words)
	words[len(words)/2] = "b"
	b := wordsDoc(words)
	c := s.planCache
	if c.fingerprint(a) != c.fingerprint(b) {
		t.Fatal("the documents do not share a fingerprint; the test needs one")
	}
	parseWords(t, s, a)
	parseWords(t, s, a)
	if replayed, got := parseWords(t, s, b); replayed || got[len(got)/2] != "b" {
		t.Fatalf("one byte off the memo's document: replayed %v", replayed)
	}
	for _, tc := range []struct {
		doc  []byte
		want string
	}{{a, "a"}, {b, "b"}, {a, "a"}, {b, "b"}} {
		if replayed, got := parseWords(t, s, tc.doc); !replayed || got[len(got)/2] != tc.want {
			t.Errorf("replayed %v, middle word %q, want %q", replayed, got[len(got)/2], tc.want)
		}
	}
	if n := len(c.byFP[c.fingerprint(a)]); n != 2 {
		t.Errorf("%d entries under the shared fingerprint, want 2", n)
	}
}

// TestDocMemoOneByteMisses: a document one byte off a remembered one, at
// its head, middle or tail, is parsed, not replayed.
func TestDocMemoOneByteMisses(t *testing.T) {
	words := slices.Repeat([]string{"a"}, 4*docSample/len(`["a", null], `))
	for _, at := range []int{0, len(words) / 2, len(words) - 1} {
		s := New(Config{MaxConcurrent: 1})
		parseWords(t, s, wordsDoc(words))
		words[at] = "b"
		if replayed, got := parseWords(t, s, wordsDoc(words)); replayed || got[at] != "b" {
			t.Errorf("word %d changed: replayed %v, word %q", at, replayed, got[at])
		}
		words[at] = "a"
	}
}

// TestDocMemoByteCeiling drives the memo's byte bound with made-up
// entries: past the ceiling the coldest go, the byte gauge follows, and an
// evicted document is no longer found.
func TestDocMemoByteCeiling(t *testing.T) {
	c := newPlanCache(16)
	// Untouched zero pages: the documents cost address space, not memory.
	big := make([]byte, maxDocCacheBytes)
	const third = maxDocCacheBytes / 3
	store := func(n int) []byte {
		doc := big[:n]
		fp := c.fingerprint(doc)
		c.storeDoc(&docEntry{doc: doc, fp: fp}, Spec{}, nil)
		return doc
	}
	found := func(doc []byte) bool { return c.lookupDoc(c.fingerprint(doc), doc) != nil }
	a, b := store(third), store(third+1)
	if e := c.lookupDoc(c.fingerprint(a), a); e == nil {
		t.Fatal("a not remembered")
	} else {
		c.replay(e) // a is now warmer than b
	}
	d := store(third + 2) // one byte over the ceiling
	if found(b) || !found(a) || !found(d) {
		t.Errorf("after an insert past the ceiling: a %v, b %v, d %v; want only the coldest, b, gone", found(a), found(b), found(d))
	}
	if c.docBytes != 2*third+2 || c.docs.len() != 2 || len(c.byFP) != 2 {
		t.Errorf("memo accounts %d bytes in %d entries (%d fingerprints), want %d in 2", c.docBytes, c.docs.len(), len(c.byFP), 2*third+2)
	}
	evict(c, c.docs, -1)
	if c.docBytes != 0 || len(c.byFP) != 0 {
		t.Errorf("after evicting everything: %d bytes, %d fingerprints", c.docBytes, len(c.byFP))
	}
}
