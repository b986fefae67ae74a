package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/record"
)

// refResult is the frozen reference for the result encoder: the document
// as flowserve wrote it through encoding/json, a map of "id", the rows as
// Go scalars and, when asked for, "stats", encoded with SetIndent("", "  ")
// (map keys sort, so "stats" follows "rows"). It fails on a non-finite
// float, which is why the encoder replaced it.
func refResult(id int64, out record.DataSet, perOp []engine.OpStats) ([]byte, error) {
	rows := make([][]any, len(out))
	for i, rec := range out {
		row := make([]any, len(rec))
		for c, v := range rec {
			switch v.Kind() {
			case record.KindInt:
				row[c] = v.AsInt()
			case record.KindFloat:
				row[c] = v.AsFloat()
			case record.KindString:
				row[c] = v.AsString()
			case record.KindBool:
				row[c] = v.AsBool()
			}
		}
		rows[i] = row
	}
	doc := map[string]any{"id": id, "rows": rows}
	if perOp != nil {
		doc["stats"] = perOp
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}

// appendResult appends the whole result document of job id, as writeResult
// writes it.
func appendResult(b []byte, id int64, out record.DataSet, perOp []engine.OpStats) ([]byte, error) {
	b = appendResultHead(b, id)
	for i, rec := range out {
		b = appendResultRow(b, i, rec)
	}
	return appendResultTail(b, len(out), perOp)
}

// Values at the edges of what encoding/json writes differently: ints at
// the int64 limits and past float64's exact range; floats either side of
// the exponent-form cutoffs (1e-6, 1e21), negative zero, subnormals and
// the largest finite float; strings with every kind of escape.
var (
	edgeInts   = []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, -1e-6, 1e-7, 1.5e-7, 1e21, 9.999999999999999e20, 1e20, -1e21,
		1e-300, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 1e-10}
	edgeStrings = []string{"", `"`, `\`, `a"b\c`, "\x00\x01\x1f\x7f", "\b\f\n\r\t", "<a href=\"x\">&amp;</a>",
		"\xff", "a\xc3", "\xed\xa0\x80", "\u2028\u2029", "x\u2028y", "héllo ☃ 𝄞", "\ufffd"}
)

// fuzzResult turns bytes into a result: an id, rows of finite values of
// every kind (edge values and raw bits alike), and per-operator stats or
// none.
func fuzzResult(data []byte) (id int64, out record.DataSet, perOp []engine.OpStats) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	word := func() uint64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	str := func() string {
		n := int(next() % 24)
		s := string(data[:min(n, len(data))])
		data = data[min(n, len(data)):]
		return s
	}
	id = int64(word())
	out = record.DataSet{}
	for rows := int(next() % 12); len(out) < rows; {
		rec := make(record.Record, next()%6)
		for f := range rec {
			switch k := next(); k % 9 {
			case 0:
				rec[f] = record.Null
			case 1:
				rec[f] = record.Int(edgeInts[int(k/9)%len(edgeInts)])
			case 2:
				rec[f] = record.Int(int64(word()))
			case 3:
				rec[f] = record.Float(edgeFloats[int(k/9)%len(edgeFloats)])
			case 4:
				if x := math.Float64frombits(word()); !math.IsInf(x, 0) && !math.IsNaN(x) {
					rec[f] = record.Float(x)
				}
			case 5:
				rec[f] = record.String(edgeStrings[int(k/9)%len(edgeStrings)])
			case 6, 7:
				rec[f] = record.String(str())
			case 8:
				rec[f] = record.Bool(k&16 != 0)
			}
		}
		out = append(out, rec)
	}
	switch next() % 3 {
	case 1:
		perOp = []engine.OpStats{}
	case 2:
		for n := int(next()%3) + 1; len(perOp) < n; {
			perOp = append(perOp, engine.OpStats{Name: str(), InRecords: int(next()), OutRecords: int(word() >> 1),
				ShippedBytes: int(next()), UDFCalls: int(next()), ShipTime: time.Duration(word() >> 1)})
		}
	}
	return id, out, perOp
}

// FuzzResultEncoding: on arbitrary finite results, with and without stats,
// the encoder writes the reference's bytes.
func FuzzResultEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0})    // no rows, no stats
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1}) // empty rows, empty stats
	for k := byte(0); k < 20; k++ {
		f.Add([]byte{byte(k), 0, 0, 0, 0, 0, 0, 0, 2, 5, 1 + 9*k, 3 + 9*k, 5 + 9*k, 0, 8, 5,
			6, 5, '<', '"', 0xe2, 0x80, 0xa8, 4, 1, 2, 3, 4, 5, 6, 7, 0x40, 2, 1, 3, 'o', 'p', 0xff})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		id, out, perOp := fuzzResult(data)
		want, err := refResult(id, out, perOp)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := appendResult(nil, id, out, perOp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from encoding/json:\n got: %q\nwant: %q", got, want)
		}
	})
}

// TestResultEncodingEdges runs every edge value through the encoder and
// the reference, one row each.
func TestResultEncodingEdges(t *testing.T) {
	var out record.DataSet
	for _, i := range edgeInts {
		out = append(out, record.Record{record.Int(i)})
	}
	for _, x := range edgeFloats {
		out = append(out, record.Record{record.Float(x), record.Float(-x)})
	}
	for _, s := range edgeStrings {
		out = append(out, record.Record{record.String(s)})
	}
	out = append(out, record.Record{}, record.Record{record.Null, record.Bool(true), record.Bool(false)})
	want, err := refResult(3, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := appendResult(nil, 3, out, nil); !bytes.Equal(got, want) {
		t.Errorf("encoder differs from encoding/json:\n got: %s\nwant: %s", got, want)
	}
}

// TestResultEncodingNonFinite: the floats encoding/json refuses are written
// as null, in a document that parses.
func TestResultEncodingNonFinite(t *testing.T) {
	out := record.DataSet{{record.String("k"), record.Float(math.Inf(1)), record.Float(math.Inf(-1)), record.Float(math.NaN())}}
	got, err := appendResult(nil, 1, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Rows [][]any }
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("%s: %v", got, err)
	}
	if row := doc.Rows[0]; len(row) != 4 || row[0] != "k" || row[1] != nil || row[2] != nil || row[3] != nil {
		t.Errorf("row = %v, want [k <nil> <nil> <nil>]", row)
	}
}

// TestResultEncodingAllocs pins the encoder at no allocation per row:
// encoding a 1,000-row result into a buffer that already held it allocates
// nothing.
func TestResultEncodingAllocs(t *testing.T) {
	out := make(record.DataSet, 1000)
	for i := range out {
		out[i] = record.Record{record.String("word <" + string(rune('a'+i%26)) + ">"), record.Int(int64(i) << 40),
			record.Float(float64(i) / 7), record.Float(1e-9 * float64(i)), record.Bool(i%2 == 0), record.Null}
	}
	buf, err := appendResult(nil, 1, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { buf, _ = appendResult(buf[:0], 1, out, nil) }); allocs != 0 {
		t.Errorf("encoding 1,000 rows into a reused buffer: %.1f allocs, want 0", allocs)
	}
}
