package engine

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"

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

// TestCollectSizesOnceUnderBudget pins the receivers of a budgeted
// partitioned shuffle: under a budget they never reach, each starts its
// partition at the pre-sized capacity and never regrows it, so the shuffle
// allocates as often for 100k records as for 10k, and the partitions'
// record headers stay within 1.25 × records × 24 bytes.
func TestCollectSizesOnceUnderBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are not meaningful")
	}
	// A collection mid-measurement would empty the batch pool and count
	// its refill against the larger input.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const dop = 4
	e := New(dop)
	keys := []int{2} // unique per record: a near-even spread
	var counts []float64
	for _, n := range []int{10000, 100000} {
		in := make(Partitioned, dop)
		for i, r := range shuffleTestData(n) {
			in[i%dop] = append(in[i%dop], r)
		}
		var ed edge
		allocs := testing.AllocsPerRun(5, func() {
			ed = edge{data: in, keys: keys, ship: optimizer.ShipPartition, width: 32}
			if _, err := e.shuffle(t.Context(), 0, &ed, nil, 1<<30); err != nil {
				t.Fatal(err)
			}
		})
		closeSpills(ed.spills)
		headers := 0
		for i, part := range ed.data {
			headers += cap(part) * int(unsafe.Sizeof(record.Record{}))
			if ed.spilled(i) {
				t.Fatalf("%d records: partition %d spilled under a budget it cannot reach", n, i)
			}
		}
		t.Logf("budgeted shuffle of %d records at DOP %d: %.0f allocations, %d header bytes", n, dop, allocs, headers)
		if ed.data.Records() != n {
			t.Fatalf("shuffled %d of %d records", ed.data.Records(), n)
		}
		if limit := 1.25 * float64(n) * 24; float64(headers) > limit {
			t.Errorf("%d records: partitions hold %d header bytes, want at most %.0f", n, headers, limit)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("budgeted shuffle allocations %v grow with the record count: the receivers regrow", counts)
	}
}
