package record

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// encodeAll is the row-codec rendering of a record slice — the byte string
// every columnar round-trip must reproduce exactly.
func encodeAll(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = r.AppendEncoded(buf)
	}
	return buf
}

// randomRecordForBatch draws records with ragged arities and every kind,
// plus the dictionary-relevant regimes: heavy string repetition (colliding
// codes), all-null columns, and empty records.
func randomRecordForBatch(rng *rand.Rand) Record {
	r := make(Record, rng.Intn(6))
	for j := range r {
		switch {
		case j == 2: // field 2, when present, is always null: an all-null column
			r[j] = Null
		case rng.Intn(3) == 0:
			words := []string{"tok", "tok", "alpha", "beta", ""}
			r[j] = String(words[rng.Intn(len(words))])
		default:
			r[j] = randomValue(rng)
		}
	}
	return r
}

// TestColBatchRoundTrip is the property test of the columnar flip: random
// batches → columnar → row view → columnar again is lossless, with the wire
// encoding byte-identical at every step and the running EncodedSize in
// agreement with the row codec.
func TestColBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		if trial == 0 {
			n = 0 // empty batch
		}
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randomRecordForBatch(rng)
		}
		want := encodeAll(recs)

		cb := NewColBatch(DefaultBatchCap)
		for _, r := range recs {
			cb.Append(r)
		}
		if cb.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, cb.Len(), n)
		}
		if cb.EncodedSize() != len(want) {
			t.Fatalf("trial %d: EncodedSize = %d, want %d", trial, cb.EncodedSize(), len(want))
		}
		if got := cb.AppendEncoded(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: columnar encoding diverges from row codec\n got %x\nwant %x", trial, got, want)
		}

		// Row view: materialized rows must encode identically (which pins
		// kind, payload, and arity — stronger than Value.Equal, which
		// conflates Int(2) and Float(2)).
		rows := cb.Rows()
		if !bytes.Equal(encodeAll(rows), want) {
			t.Fatalf("trial %d: row view re-encoding diverges", trial)
		}

		// Columnar again from the materialized rows.
		cb2 := NewColBatch(DefaultBatchCap)
		for _, r := range rows {
			cb2.Append(r)
		}
		if got := cb2.AppendEncoded(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: second columnar pass diverges", trial)
		}

		// Field accessor vs Record.Field across the whole rectangle,
		// including columns past a row's arity.
		for i, r := range recs {
			for f := -1; f <= cb.Width(); f++ {
				got, want := cb.Field(i, f), r.Field(f)
				same := got.Kind() == want.Kind()
				if same {
					if got.Kind() == KindFloat {
						// Bit equality, so NaN payloads and -0.0 round-trip.
						same = math.Float64bits(got.AsFloat()) == math.Float64bits(want.AsFloat())
					} else {
						same = got.Equal(want)
					}
				}
				if !same {
					t.Fatalf("trial %d: Field(%d,%d) = %v, want %v", trial, i, f, got, want)
				}
			}
		}
	}
}

// TestColBatchResetReuse pins pooled reuse: a reset batch refilled with
// different strings must rebuild its dictionary from scratch (codes restart
// at zero) and reproduce the row codec exactly.
func TestColBatchResetReuse(t *testing.T) {
	cb := GetColBatch()
	defer PutColBatch(cb)
	first := []Record{{String("aa"), Int(1)}, {String("bb"), Int(2)}, {String("aa"), Int(3)}}
	for _, r := range first {
		cb.Append(r)
	}
	cb.Reset()
	if cb.Len() != 0 || cb.EncodedSize() != 0 {
		t.Fatalf("Reset left Len=%d bytes=%d", cb.Len(), cb.EncodedSize())
	}
	second := []Record{{String("cc")}, {String("cc"), Bool(true), Float(1.5)}}
	for _, r := range second {
		cb.Append(r)
	}
	if got, want := cb.AppendEncoded(nil), encodeAll(second); !bytes.Equal(got, want) {
		t.Fatalf("post-Reset encoding diverges\n got %x\nwant %x", got, want)
	}
	if len(cb.dict) != 1 {
		t.Fatalf("dictionary not rebuilt: %v", cb.dict)
	}
}

// combineRows is the row-at-a-time combiner the engine's senders ran before
// the columnar flip (the former Batch.Combine), kept verbatim as
// CombineInto's oracle: it groups the batch's records by the key fields and
// replaces the batch's contents with fn's output for every group. Groups are
// emitted in first-occurrence order, records within a group keep their
// arrival order, and the running byte total is rebuilt from the replacement
// records. It returns the number of groups (= fn invocations).
func combineRows(b *Batch, keys []int, fn func(group []Record) ([]Record, error)) (int, error) {
	if len(b.recs) == 0 {
		return 0, nil
	}
	// Group by key hash with collision safety: a bucket may hold several
	// true key groups, told apart by field-wise key equality against the
	// group's first record.
	type group struct {
		head Record // first record, the group's key representative
		recs []Record
	}
	groups := make([]group, 0, 16)
	buckets := map[uint64][]int{}
	for _, r := range b.recs {
		h := r.Hash(keys)
		gi := -1
		for _, idx := range buckets[h] {
			if r.EqualOn(groups[idx].head, keys) {
				gi = idx
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, group{head: r})
			buckets[h] = append(buckets[h], gi)
		}
		groups[gi].recs = append(groups[gi].recs, r)
	}
	b.Reset()
	for _, g := range groups {
		out, err := fn(g.recs)
		if err != nil {
			return 0, err
		}
		for _, r := range out {
			b.Append(r)
		}
	}
	return len(groups), nil
}

// groupRows materializes a columnar group for the row-shaped test combiners.
func groupRows(g ColGroup) []Record {
	rows := make([]Record, g.Len())
	for i := range rows {
		rows[i] = g.At(i)
	}
	return rows
}

// TestColBatchCombineInto: grouping is by true key equality (hash collisions
// split), groups arrive in first-occurrence order with arrival order kept
// inside each group, what the callback emits lands in out with its byte
// total, and the callback's error propagates.
func TestColBatchCombineInto(t *testing.T) {
	cb := NewColBatch(8)
	for _, r := range []Record{
		{String("a"), Int(1)},
		{String("b"), Int(2)},
		{String("a"), Int(3)},
		{String("b"), Int(4)},
		{String("a"), Int(5)},
	} {
		cb.Append(r)
	}
	var seen [][]Record
	out := NewBatch(8)
	calls, err := cb.CombineInto([]int{0}, out, func(g ColGroup, emit func(Record) error) error {
		rows := groupRows(g)
		seen = append(seen, rows)
		var sum int64
		for _, r := range rows {
			sum += r.Field(1).AsInt()
		}
		return emit(Record{rows[0].Field(0), Int(sum)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("combine invoked fn %d times, want 2", calls)
	}
	if len(seen) != 2 || len(seen[0]) != 3 || len(seen[1]) != 2 || seen[0][1].Field(1).AsInt() != 3 {
		t.Fatalf("unexpected grouping: %v", seen)
	}
	want := []Record{{String("a"), Int(9)}, {String("b"), Int(6)}}
	if out.Len() != 2 || !out.Records()[0].Equal(want[0]) || !out.Records()[1].Equal(want[1]) {
		t.Fatalf("combined batch %v, want %v", out.Records(), want)
	}
	if got := want[0].EncodedSize() + want[1].EncodedSize(); out.EncodedSize() != got {
		t.Errorf("combined batch reports %d bytes, want %d", out.EncodedSize(), got)
	}

	// Empty batch: no calls, no error.
	if calls, err := NewColBatch(4).CombineInto([]int{0}, out, nil); err != nil || calls != 0 {
		t.Errorf("empty combine: calls=%d err=%v", calls, err)
	}

	// Error propagation.
	boom := errors.New("boom")
	if _, err := cb.CombineInto([]int{0}, NewBatch(8), func(ColGroup, func(Record) error) error { return boom }); err != boom {
		t.Errorf("combine returned %v, want the callback's error", err)
	}
}

// TestColBatchCombineMatchesBatch is the differential core of the vectorized
// combiner: CombineInto over cached routing hashes must produce exactly the
// groups — same order, same members — and the same combined output as the
// row-path oracle combineRows, for keys with dictionary collisions, nulls,
// and cross-kind numeric equality.
func TestColBatchCombineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []int{0, 1}
	sum := func(group []Record) ([]Record, error) {
		var s int64
		for _, r := range group {
			s += r.Field(2).AsInt()
		}
		return []Record{{group[0].Field(0), group[0].Field(1), Int(s)}}, nil
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		recs := make([]Record, n)
		for i := range recs {
			var k0 Value
			switch rng.Intn(4) {
			case 0:
				k0 = String([]string{"x", "y", "z"}[rng.Intn(3)])
			case 1:
				k0 = Int(int64(rng.Intn(3)))
			case 2:
				k0 = Float(float64(rng.Intn(3))) // collides with Int under Equal
			default:
				k0 = Null
			}
			recs[i] = Record{k0, Int(int64(rng.Intn(2))), Int(int64(rng.Intn(100)))}
		}

		rb := NewBatch(DefaultBatchCap)
		for _, r := range recs {
			rb.Append(r)
		}
		wantGroups, err := combineRows(rb, keys, sum)
		if err != nil {
			t.Fatal(err)
		}

		cb := NewColBatch(DefaultBatchCap)
		for _, r := range recs {
			cb.AppendWithHash(r, keys, r.Hash(keys))
		}
		out := NewBatch(DefaultBatchCap)
		gotGroups, err := cb.CombineInto(keys, out, func(g ColGroup, emit func(Record) error) error {
			res, err := sum(groupRows(g))
			for _, r := range res {
				emit(r)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if gotGroups != wantGroups {
			t.Fatalf("trial %d: %d groups, row path %d", trial, gotGroups, wantGroups)
		}
		got, want := encodeAll(out.Records()), encodeAll(rb.Records())
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: combined output diverges\n got %x\nwant %x", trial, got, want)
		}
		if out.EncodedSize() != rb.EncodedSize() {
			t.Fatalf("trial %d: combined EncodedSize %d vs %d", trial, out.EncodedSize(), rb.EncodedSize())
		}
	}
}
