package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// shuffleTestData builds records with mixed int/string key fields plus a
// unique payload, so multiset comparisons can tell every record apart.
func shuffleTestData(n int) record.DataSet {
	rng := rand.New(rand.NewSource(42))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{
			record.Int(int64(rng.Intn(53) - 26)),
			record.String(words[rng.Intn(len(words))]),
			record.Int(int64(i)),
		}
	}
	return data
}

// TestShuffleCorrectnessAndDeterminism checks, for several degrees of
// parallelism, that a hash shuffle (a) outputs a permutation-invariant equal
// multiset of its input, (b) places every record on the partition its key
// hash selects, (c) produces identical per-partition bags across runs, and
// (d) agrees with the retained record-at-a-time path.
func TestShuffleCorrectnessAndDeterminism(t *testing.T) {
	const n = 5000
	data := shuffleTestData(n)
	keys := []int{0, 1}
	for _, dop := range []int{1, 2, 8, 17} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			e := New(dop)
			// Source partition count deliberately differs from DOP.
			in := make(Partitioned, 5)
			for i, r := range data {
				in[i%5] = append(in[i%5], r)
			}

			out, bytes, err := e.Shuffle(in, keys)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != dop {
				t.Fatalf("shuffle produced %d partitions, want %d", len(out), dop)
			}
			if !out.Flatten().Equal(data) {
				t.Fatal("shuffled output is not a multiset-equal permutation of the input")
			}
			if want := data.TotalSize(); bytes != want {
				t.Errorf("shipped bytes = %d, want %d", bytes, want)
			}
			for p, part := range out {
				for _, r := range part {
					if got := int(r.Hash(keys) % uint64(dop)); got != p {
						t.Fatalf("record %v landed on partition %d, its key hashes to %d", r, p, got)
					}
				}
			}

			// Determinism: re-running must yield the same bag per partition.
			out2, _, err := e.Shuffle(in, keys)
			if err != nil {
				t.Fatal(err)
			}
			for p := range out {
				if !record.DataSet(out[p]).Equal(record.DataSet(out2[p])) {
					t.Fatalf("partition %d differs between two runs of the same shuffle", p)
				}
			}

			// Equivalence with the per-record baseline, partition by
			// partition (both paths use the same hash placement).
			legacy, legacyBytes := e.shuffleRecordAtATime(in, keys)
			if legacyBytes != bytes {
				t.Errorf("legacy path accounted %d bytes, batched %d", legacyBytes, bytes)
			}
			for p := range out {
				if !record.DataSet(out[p]).Equal(record.DataSet(legacy[p])) {
					t.Fatalf("partition %d differs between batched and per-record paths", p)
				}
			}
		})
	}
}

// TestShuffleEdgeCases: empty inputs and fully skewed keys (every record on
// one partition) must not deadlock or drop records.
func TestShuffleEdgeCases(t *testing.T) {
	e := New(4)
	out, bytes, err := e.Shuffle(make(Partitioned, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Records() != 0 || bytes != 0 {
		t.Errorf("empty shuffle: %d records, %d bytes", out.Records(), bytes)
	}

	skew := make(Partitioned, 2)
	for i := 0; i < 3000; i++ {
		skew[i%2] = append(skew[i%2], record.Record{record.Int(7), record.Int(int64(i))})
	}
	out, _, err = e.Shuffle(skew, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Records() != 3000 {
		t.Fatalf("skewed shuffle kept %d of 3000 records", out.Records())
	}
	nonEmpty := 0
	for _, part := range out {
		if len(part) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("single-key shuffle spread records over %d partitions", nonEmpty)
	}
}

// TestShuffleAllocRegression pins the batched path's allocation advantage
// over the per-record baseline with testing.AllocsPerRun. The benchmark
// BenchmarkShuffle records the exact ratio; here we only assert a floor
// loose enough to be stable across Go versions.
func TestShuffleAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are not meaningful")
	}
	const n = 100000
	data := shuffleTestData(n)
	keys := []int{0, 1}
	e := New(8)
	in := make(Partitioned, 8)
	for i, r := range data {
		in[i%8] = append(in[i%8], r)
	}

	batched := testing.AllocsPerRun(5, func() {
		e.Shuffle(in, keys)
	})
	legacy := testing.AllocsPerRun(5, func() {
		e.shuffleRecordAtATime(in, keys)
	})
	t.Logf("allocs per shuffle of %d records at DOP 8: batched=%.0f, per-record=%.0f", n, batched, legacy)
	if batched*2 > legacy {
		t.Errorf("batched shuffle allocates %.0f, not even 2x below the per-record path's %.0f", batched, legacy)
	}
	// Absolute ceiling: batching must keep allocations per shuffle in the
	// dozens (channel/goroutine setup), not scale with the record count.
	if batched > float64(n)/100 {
		t.Errorf("batched shuffle allocates %.0f times for %d records", batched, n)
	}
}

// TestChainedExecutionMatchesUnchained strips the Chained annotation off an
// optimizer-produced plan — every Map then runs as an operator of its own,
// a chain of length one — and checks that the fused execution agrees with
// it, and with the reference executor's stage-at-a-time Map loop, on
// both the output bag and the per-operator statistics.
func TestChainedExecutionMatchesUnchained(t *testing.T) {
	f, tree := buildPaperFlow(t)
	rng := rand.New(rand.NewSource(11))
	data := make(record.DataSet, 500)
	for i := range data {
		data[i] = record.Record{record.Int(int64(rng.Intn(41) - 20)), record.Int(int64(rng.Intn(41) - 20))}
	}
	e := New(4)
	e.AddSource("I", data)

	est := optimizer.NewEstimator(f)
	phys := optimizer.NewPhysicalOptimizer(est, 4).Optimize(tree)
	chainedOut, chainedStats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	refOut, refStats := mustRefRun(t, e, phys, "paper flow")
	requireByteIdentical(t, chainedOut, refOut, "fused chain vs reference")
	requireSameCounters(t, chainedStats, refStats, "fused chain vs reference")
	hasChained := false
	var strip func(p *optimizer.PhysPlan)
	strip = func(p *optimizer.PhysPlan) {
		if p.Chained {
			hasChained = true
		}
		p.Chained = false
		for _, in := range p.Inputs {
			strip(in)
		}
	}
	strip(phys)
	if !hasChained {
		t.Fatal("optimizer produced no Chained annotation for a Map pipeline")
	}
	plainOut, plainStats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if !chainedOut.Equal(plainOut) {
		t.Fatal("fused chain output differs from stage-at-a-time output")
	}
	if chainedStats.TotalUDFCalls() != plainStats.TotalUDFCalls() {
		t.Errorf("UDF calls: chained %d, unchained %d",
			chainedStats.TotalUDFCalls(), plainStats.TotalUDFCalls())
	}
	// Per-op record counts must survive fusion.
	chained := statsByName(chainedStats)
	for _, s := range plainStats.PerOp {
		c, ok := chained[s.Name]
		if !ok {
			t.Errorf("operator %s missing from fused stats", s.Name)
			continue
		}
		if c.InRecords != s.InRecords || c.OutRecords != s.OutRecords || c.UDFCalls != s.UDFCalls {
			t.Errorf("%s: fused stats in=%d out=%d calls=%d, unchained in=%d out=%d calls=%d",
				s.Name, c.InRecords, c.OutRecords, c.UDFCalls, s.InRecords, s.OutRecords, s.UDFCalls)
		}
	}
}

func statsByName(rs *RunStats) map[string]OpStats {
	m := make(map[string]OpStats, len(rs.PerOp))
	for _, s := range rs.PerOp {
		m[s.Name] = s
	}
	return m
}
