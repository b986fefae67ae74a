package record

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func randomRecord(rng *rand.Rand) Record {
	r := make(Record, rng.Intn(6))
	for i := range r {
		switch rng.Intn(5) {
		case 0:
			// leave Null
		case 1:
			r[i] = Int(rng.Int63() - rng.Int63())
		case 2:
			r[i] = Float(rng.NormFloat64() * 1e6)
		case 3:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			r[i] = String(string(b))
		default:
			r[i] = Bool(rng.Intn(2) == 0)
		}
	}
	return r
}

// TestCodecRoundTrip: decode(encode(r)) == r, and the encoding occupies
// exactly EncodedSize bytes — the codec and the byte accounting must never
// drift apart.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	var recs []Record
	for i := 0; i < 500; i++ {
		r := randomRecord(rng)
		recs = append(recs, r)
		before := len(buf)
		buf = r.AppendEncoded(buf)
		if got, want := len(buf)-before, r.EncodedSize(); got != want {
			t.Fatalf("record %v encoded to %d bytes, EncodedSize says %d", r, got, want)
		}
	}
	decoded, err := DecodeRecords(nil, buf, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got := decoded[i]
		if len(got) != len(want) {
			t.Fatalf("record %d: decoded arity %d, want %d", i, len(got), len(want))
		}
		for f := range want {
			if got[f].Kind() != want[f].Kind() || !got[f].Equal(want[f]) {
				t.Fatalf("record %d field %d: decoded %v (%v), want %v (%v)",
					i, f, got[f], got[f].Kind(), want[f], want[f].Kind())
			}
		}
	}
}

// TestCodecSpecials pins non-finite floats and kind preservation (an int
// and the Equal float must decode back as distinct kinds).
func TestCodecSpecials(t *testing.T) {
	r := Record{
		Int(2), Float(2.0), Float(math.Inf(-1)), Float(math.NaN()),
		String(""), Bool(false), Null,
	}
	recs, err := DecodeRecords(nil, r.AppendEncoded(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := recs[0]
	if got[0].Kind() != KindInt || got[1].Kind() != KindFloat {
		t.Errorf("numeric kinds not preserved: %v, %v", got[0].Kind(), got[1].Kind())
	}
	if !math.IsInf(got[2].AsFloat(), -1) {
		t.Errorf("-Inf decoded as %v", got[2])
	}
	if !math.IsNaN(got[3].AsFloat()) {
		t.Errorf("NaN decoded as %v", got[3])
	}
	if got[4].Kind() != KindString || got[4].AsString() != "" {
		t.Errorf("empty string decoded as %v", got[4])
	}
	if !got[6].IsNull() {
		t.Errorf("null decoded as %v", got[6])
	}
}

// TestCodecTruncation: every prefix of a valid encoding fails cleanly, and
// so does the encoding with a byte left over.
func TestCodecTruncation(t *testing.T) {
	r := Record{Int(7), String("hello"), Bool(true)}
	buf := r.AppendEncoded(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRecords(nil, buf[:cut], 1); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", cut, len(buf))
		}
	}
	if _, err := DecodeRecords(nil, append(buf, 0), 1); err == nil {
		t.Fatal("a trailing byte decoded without error")
	}
}

// frameOf encodes n records of the given shape back to back.
func frameOf(n int, rec func(i int) Record) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = rec(i).AppendEncoded(buf)
	}
	return buf
}

// TestDecodeRecordsOwnsStorage: decoded records share nothing with the
// frame bytes, which the caller may overwrite at once, and each record's
// capacity ends at its width, so appending to one cannot write into the
// next record's window of the slab.
func TestDecodeRecordsOwnsStorage(t *testing.T) {
	want := []Record{
		{Int(1), String("alpha"), Null},
		{String("beta"), Bool(true)},
		{},
		{Float(0.5), String(""), String("gamma")},
	}
	buf := frameOf(len(want), func(i int) Record { return want[i] })
	got, err := DecodeRecords(nil, buf, len(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	_ = append(got[0], Int(99))
	for i := range want {
		if !got[i].Equal(want[i]) || cap(got[i]) != len(want[i]) {
			t.Fatalf("record %d is %v (cap %d), want %v", i, got[i], cap(got[i]), want[i])
		}
	}
}

// TestDecodeBatchAllocs pins what a frame costs once the slab pool is warm:
// a 1,024-record frame whose slab goes back after each decode takes its
// Values from the pool, so it costs one allocation — the string arena — when
// it holds strings, and none when it does not.
func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	for _, c := range []struct {
		name string
		rec  func(i int) Record
		max  float64
	}{
		{"strings", func(i int) Record { return Record{Int(int64(i)), String("word"), Null, String("w" + strconv.Itoa(i))} }, 1},
		{"no-strings", func(i int) Record { return Record{Int(int64(i)), Float(0.5), Null, Bool(i%2 == 0)} }, 0},
	} {
		buf := frameOf(DefaultBatchCap, c.rec)
		made := SlabsMade()
		allocs := testing.AllocsPerRun(20, func() {
			b, err := DecodeBatch(buf, DefaultBatchCap)
			if err != nil {
				t.Fatal(err)
			}
			if b.EncodedSize() != len(buf) {
				t.Fatalf("batch prices %d bytes, frame is %d", b.EncodedSize(), len(buf))
			}
			s, ok := b.TakeSlab()
			if !ok {
				t.Fatal("a decoded batch carries no slab")
			}
			s.Release()
			PutBatch(b)
		})
		if allocs > c.max {
			t.Errorf("%s: %.1f allocations per %d-record frame, want at most %.0f", c.name, allocs, DefaultBatchCap, c.max)
		}
		if n := SlabsMade() - made; n > 1 {
			t.Errorf("%s: %d slabs allocated over 21 decodes, want the first only", c.name, n)
		}
	}
}

// TestDecodeBatchOverwritesReleasedSlab: a released slab is poisoned (with
// poisoning on) or cleared, and a frame decoded into it afterwards reads
// back exactly, Nulls included, whatever the slab held.
func TestDecodeBatchOverwritesReleasedSlab(t *testing.T) {
	PoisonReleasedSlabs(true)
	defer PoisonReleasedSlabs(false)
	rec := func(i int) Record { return Record{Null, Int(int64(i)), String("s" + strconv.Itoa(i)), Null} }
	buf := frameOf(100, rec)
	for round := 0; round < 3; round++ {
		b, err := DecodeBatch(buf, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range b.Records() {
			if !r.Equal(rec(i)) {
				t.Fatalf("round %d: record %d is %v, want %v", round, i, r, rec(i))
			}
		}
		s, _ := b.TakeSlab()
		first := b.Records()[0]
		s.Release()
		if !first[0].Equal(poisoned) {
			t.Fatalf("round %d: a released slab reads %v, want the poison", round, first[0])
		}
		PutBatch(b)
	}
	if _, ok := NewBatch(4).TakeSlab(); ok {
		t.Fatal("a batch DecodeBatch did not fill carries a slab")
	}
}

// TestSlabClasses: a slab of any poolable size gets a class at least that
// long, and a slab of a class's size maps back to that class, as Release
// needs.
func TestSlabClasses(t *testing.T) {
	for n := 1; n <= 1<<maxSlabBits; n++ {
		c, size := slabClass(n)
		if size < n || c < 0 || c >= len(slabPools) {
			t.Fatalf("slabClass(%d) = class %d, size %d", n, c, size)
		}
		if c2, size2 := slabClass(size); c2 != c || size2 != size {
			t.Fatalf("slabClass(%d) = %d, %d, but slabClass(%d) = %d, %d", n, c, size, size, c2, size2)
		}
	}
	if _, size := slabClass(1<<maxSlabBits + 1); size != 0 {
		t.Fatalf("a slab of %d Values is pooled at size %d", 1<<maxSlabBits+1, size)
	}
}

// TestCompareOn: CompareOn must agree with comparing projections.
func TestCompareOn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fields := []int{0, 2, 4}
	for i := 0; i < 200; i++ {
		a, b := randomRecord(rng), randomRecord(rng)
		want := a.Project(fields).Compare(b.Project(fields))
		if got := a.CompareOn(b, fields); got != want {
			t.Fatalf("CompareOn(%v, %v, %v) = %d, projections compare %d", a, b, fields, got, want)
		}
	}
}

// countingReader counts the Read calls made on it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameRoundTrip pins the record frame: AppendFrame writes the count,
// the payload length and the encodings; ReadFrame reads the header and then
// the payload with one read each, and reads no payload whose claim breaks a
// limit; a frame cut short anywhere fails.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]Record, 40)
	var payload []byte
	for i := range recs {
		recs[i] = randomRecord(rng)
		payload = recs[i].AppendEncoded(payload)
	}
	buf := AppendFrame([]byte("prefix"), recs)[len("prefix"):]
	if want := AppendFrameHeader(nil, len(recs), len(payload)); !bytes.Equal(buf[:FrameHeaderSize], want) || !bytes.Equal(buf[FrameHeaderSize:], payload) {
		t.Fatalf("frame is %x, want header %x and the records' encodings", buf, want)
	}
	cr := &countingReader{r: bytes.NewReader(buf)}
	count, got, err := ReadFrame(cr, nil, len(recs), len(payload))
	if err != nil || count != len(recs) || !bytes.Equal(got, payload) || cr.reads != 2 {
		t.Fatalf("ReadFrame = %d, %x, %v after %d reads; want %d records, the payload, 2 reads", count, got, err, cr.reads, len(recs))
	}
	for _, limits := range [][2]int{{len(recs) - 1, len(payload)}, {len(recs), len(payload) - 1}} {
		cr := &countingReader{r: bytes.NewReader(buf)}
		if _, _, err := ReadFrame(cr, nil, limits[0], limits[1]); err == nil || cr.reads != 1 {
			t.Fatalf("limits %v: err %v after %d reads, want an error after the header alone", limits, err, cr.reads)
		}
	}
	for cut := range len(buf) {
		if _, _, err := ReadFrame(bytes.NewReader(buf[:cut]), nil, len(recs), len(payload)); err == nil {
			t.Fatalf("a frame cut to %d bytes was read", cut)
		}
	}
}
