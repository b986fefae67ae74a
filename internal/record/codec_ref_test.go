package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refDecodeRecord is the per-record decoder the engine used before
// DecodeRecords, kept as the reference the frame decoder must match: one
// record from the front of buf, built through the public constructors, with
// one fresh []Value and one fresh string per string field. It returns the
// record and the bytes consumed. It differs from the engine's old decoder
// twice: a bool byte other than 0 or 1 is an error, so that every encoding
// it accepts is the one AppendEncoded writes, and a record's capacity is
// capped by buf's length, so that a hostile field count cannot make the
// reference itself allocate gigabytes.
func refDecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("record: truncated header (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	pos := 4
	r := make(Record, 0, min(n, len(buf)))
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("record: truncated field %d of %d", i, n)
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
			r = append(r, Null)
		case KindInt, KindFloat:
			if pos+8 > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated %s field", kind)
			}
			bits := binary.LittleEndian.Uint64(buf[pos:])
			if kind == KindInt {
				r = append(r, Int(int64(bits)))
			} else {
				r = append(r, Float(math.Float64frombits(bits)))
			}
			pos += 8
		case KindString:
			if pos+4 > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated string length")
			}
			l := int(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
			if pos+l > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated string payload (%d bytes)", l)
			}
			r = append(r, String(string(buf[pos:pos+l])))
			pos += l
		case KindBool:
			if pos >= len(buf) {
				return nil, 0, fmt.Errorf("record: truncated bool field")
			}
			if buf[pos] > 1 {
				return nil, 0, fmt.Errorf("record: bool byte %d", buf[pos])
			}
			r = append(r, Bool(buf[pos] == 1))
			pos++
		default:
			return nil, 0, fmt.Errorf("record: unknown kind tag %d", kind)
		}
	}
	return r, pos, nil
}

// refDecodeFrame decodes count records with refDecodeRecord and applies the
// frame rule: the records must consume exactly buf.
func refDecodeFrame(buf []byte, count int) ([]Record, error) {
	var out []Record
	pos := 0
	for i := 0; i < count; i++ {
		r, n, err := refDecodeRecord(buf[pos:])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		pos += n
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("record: %d trailing bytes", len(buf)-pos)
	}
	return out, nil
}

// checkDecodeMatchesReference decodes one frame with both decoders and
// fails unless they agree: both reject it, or both accept it with the same
// records, kind for kind and bit for bit.
func checkDecodeMatchesReference(t *testing.T, buf []byte, count int) {
	t.Helper()
	want, wantErr := refDecodeFrame(buf, count)
	got, err := DecodeRecords(nil, buf, count)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("count %d, frame %x: DecodeRecords err = %v, reference err = %v", count, buf, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("count %d: decoded %d records, reference %d", count, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("record %d: %d fields, reference %d", i, len(got[i]), len(want[i]))
		}
		for f := range want[i] {
			if !identical(got[i][f], want[i][f]) {
				t.Fatalf("record %d field %d: %v %v, reference %v %v",
					i, f, got[i][f].Kind(), got[i][f], want[i][f].Kind(), want[i][f])
			}
		}
	}
}

// frameSeeds are wire frames (count, payload) covering what a decoder can
// get wrong: multi-record frames mixing strings, nulls and bools, ragged
// widths, a record claiming 2^24 fields, a count past the records present,
// trailing bytes, and a bool byte of 2.
func frameSeeds() []struct {
	count   int
	payload []byte
} {
	enc := func(recs ...Record) []byte {
		var buf []byte
		for _, r := range recs {
			buf = r.AppendEncoded(buf)
		}
		return buf
	}
	mixed := enc(
		Record{Int(1), String("alpha"), Null, Bool(true)},
		Record{Float(2.5), String(""), Bool(false), String("βeta")},
		Record{},
		Record{Null, Null},
	)
	huge := []byte{0, 0, 0, 1, byte(KindInt), 1, 2, 3, 4, 5, 6, 7, 8} // 2^24 fields, one present
	badBool := enc(Record{Bool(true)})
	badBool[len(badBool)-1] = 2
	return []struct {
		count   int
		payload []byte
	}{
		{4, mixed},
		{3, mixed},
		{5, mixed},
		{4, append(append([]byte(nil), mixed...), 0xff)},
		{1, huge},
		{1, badBool},
		{1, enc(Record{String("seed"), Int(-7)})},
		{0, nil},
	}
}

// TestDecodeRecordsMatchesReference runs the frame decoder against the
// reference on the seed frames, every truncation of them, and random frames.
func TestDecodeRecordsMatchesReference(t *testing.T) {
	for _, s := range frameSeeds() {
		for cut := 0; cut <= len(s.payload); cut++ {
			checkDecodeMatchesReference(t, s.payload[:cut], s.count)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		var buf []byte
		count := rng.Intn(20)
		for j := 0; j < count; j++ {
			buf = randomRecord(rng).AppendEncoded(buf)
		}
		checkDecodeMatchesReference(t, buf, count)
		if len(buf) > 0 {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
			checkDecodeMatchesReference(t, buf, count)
		}
	}
}

// FuzzDecodeRecords is the differential fuzz of the frame decoder: on any
// payload and count, DecodeRecords and the per-record reference both reject
// the frame or both return the same records.
func FuzzDecodeRecords(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(uint16(s.count), s.payload)
	}
	f.Fuzz(func(t *testing.T, count uint16, payload []byte) {
		checkDecodeMatchesReference(t, payload, int(count))
	})
}
