package record

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRecords is the fixed fixture pinning the wire codec: one record per
// interesting shape — every kind, empty record, empty string, negative and
// boundary integers, non-integral/negative-zero/NaN floats, a ragged arity
// run, and repeated strings (dictionary collisions in the columnar layout).
func goldenRecords() []Record {
	return []Record{
		{},
		{Int(0)},
		{Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(3.25), Float(-0.0), Float(math.NaN()), Float(math.Inf(1))},
		{String(""), String("hello"), String("hello"), String("héllo⊥")},
		{Bool(true), Bool(false)},
		{Null, Int(7), Null},
		{String("key"), Int(42), Float(2.5), Bool(true), Null},
	}
}

// TestGoldenWireCodec pins the record wire encoding to a committed byte
// fixture: AppendEncoded (row and columnar) must reproduce it exactly, and
// DecodeRecords must invert it — so a layout change cannot land silently.
func TestGoldenWireCodec(t *testing.T) {
	recs := goldenRecords()
	var got []byte
	for _, r := range recs {
		before := len(got)
		got = r.AppendEncoded(got)
		if n := len(got) - before; n != r.EncodedSize() {
			t.Fatalf("EncodedSize(%v) = %d, encoded %d bytes", r, r.EncodedSize(), n)
		}
	}

	path := filepath.Join("testdata", "golden_codec.bin")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire encoding diverges from committed fixture\n got %x\nwant %x", got, want)
	}

	// Columnar encoding of the same records must be the same bytes.
	cb := NewColBatch(DefaultBatchCap)
	for _, r := range recs {
		cb.Append(r)
	}
	if colGot := cb.AppendEncoded(nil); !bytes.Equal(colGot, want) {
		t.Fatalf("columnar encoding diverges from fixture\n got %x\nwant %x", colGot, want)
	}

	// Decode must invert the fixture exactly (re-encoding reproduces it).
	decoded, err := DecodeRecords(nil, want, len(recs))
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	var back []byte
	for _, r := range decoded {
		back = r.AppendEncoded(back)
	}
	if !bytes.Equal(back, want) {
		t.Fatalf("decode/re-encode round trip diverges from fixture")
	}
}
