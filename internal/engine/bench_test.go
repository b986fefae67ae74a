package engine

import (
	"math/rand"
	"testing"

	"blackboxflow/internal/obs"
	"blackboxflow/internal/record"
)

// BenchmarkShuffle compares the batched shuffle against the reference
// executor's per-record shuffle (reference_test.go — which is why the
// benchmark lives in this package) on an identical 200k-record repartition
// at DOP 8. The measured ratios (≥2x throughput, ≥5x fewer allocations for
// batched) are recorded in BENCH_shuffle.json. The "traced" mode runs the
// batched shuffle with a span recorder attached — tracing is always on in
// the service tier, so its cost is gated like a regression: cmd/benchguard
// fails if traced/batched exceeds 1.05x.
func BenchmarkShuffle(b *testing.B) {
	const n = 200000
	rng := rand.New(rand.NewSource(42))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	in := make(Partitioned, 8)
	total := 0
	for i := 0; i < n; i++ {
		r := record.Record{
			record.Int(int64(rng.Intn(53) - 26)),
			record.String(words[rng.Intn(len(words))]),
			record.Int(int64(i)),
		}
		total += r.EncodedSize()
		in[i%8] = append(in[i%8], r)
	}
	keys := []int{0, 1}
	for _, mode := range []struct {
		name   string
		legacy bool
		traced bool
	}{
		{"batched", false, false},
		{"per-record", true, false},
		{"traced", false, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := New(8)
			var tr *obs.Trace
			if mode.traced {
				tr = obs.NewTrace("bench")
				e.Trace = tr
			}
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tr != nil {
					tr.Reset("bench")
				}
				var out Partitioned
				var bytes int
				if mode.legacy {
					out, bytes = e.shuffleRecordAtATime(in, keys)
				} else {
					var err error
					if out, bytes, err = e.Shuffle(in, keys); err != nil {
						b.Fatal(err)
					}
				}
				if bytes != total || out.Records() != n {
					b.Fatalf("shuffle moved %d records / %d bytes, want %d / %d",
						out.Records(), bytes, n, total)
				}
			}
			// Uniform engine metrics (see cmd/benchguard): every engine
			// benchmark reports shipped and spilled bytes per op, so the CI
			// regression comparison has one source of truth.
			b.ReportMetric(float64(total), "shipped-B/op")
			b.ReportMetric(0, "spilled-B/op")
		})
	}
}
