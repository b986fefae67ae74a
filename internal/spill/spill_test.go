package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"syscall"
	"testing"

	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/record"
)

func intRecs(vals ...int64) []record.Record {
	out := make([]record.Record, len(vals))
	for i, v := range vals {
		out[i] = record.Record{record.Int(v)}
	}
	return out
}

func drain(t *testing.T, c Cursor) []record.Record {
	t.Helper()
	var out []record.Record
	for {
		r, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TestRunRoundTrip writes runs large enough to span several frames and reads
// them back verbatim.
func TestRunRoundTrip(t *testing.T) {
	f, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(3))
	const n = 3000 // ~3 frames at DefaultBatchCap
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			record.Int(int64(i)),
			record.String(string(rune('a' + rng.Intn(26)))),
			record.Float(rng.NormFloat64()),
		}
	}
	run1, err := f.WriteRun(recs)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := f.WriteRun(recs[:10]) // second run on the same file
	if err != nil {
		t.Fatal(err)
	}
	if run2.Offset != run1.Length {
		t.Fatalf("second run starts at %d, want %d", run2.Offset, run1.Length)
	}
	if run1.Records != n {
		t.Fatalf("run records %d, want %d", run1.Records, n)
	}

	got := drain(t, f.OpenRun(run1))
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i := range got {
		if !got[i].Equal(recs[i]) {
			t.Fatalf("record %d: got %v, want %v", i, got[i], recs[i])
		}
	}
	if got := drain(t, f.OpenRun(run2)); len(got) != 10 {
		t.Fatalf("second run read %d records, want 10", len(got))
	}
}

// TestRunReaderRejectsMiscountedFrame: a frame whose record count does not
// match its payload — the second frame of a file's second run, its count
// rewritten on disk one low and one high — fails the read with an error
// naming where the frame sits, instead of dropping or inventing records.
func TestRunReaderRejectsMiscountedFrame(t *testing.T) {
	for _, delta := range []int32{-1, 1} {
		f, err := Create(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteRun(intRecs(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, record.DefaultBatchCap+6)
		for i := range vals {
			vals[i] = int64(i)
		}
		recs := intRecs(vals...)
		run, err := f.WriteRun(recs)
		if err != nil {
			t.Fatal(err)
		}
		second := run.Offset + frameHeaderSize + int64(record.DefaultBatchCap*recs[0].EncodedSize())

		disk, err := os.OpenFile(f.path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var count [4]byte
		if _, err := disk.ReadAt(count[:], second); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(count[:], uint32(int32(binary.LittleEndian.Uint32(count[:]))+delta))
		if _, err := disk.WriteAt(count[:], second); err != nil {
			t.Fatal(err)
		}
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}

		rr := f.OpenRun(run)
		read := 0
		for {
			_, ok, err := rr.Next()
			if err != nil {
				want := fmt.Sprintf("frame at offset %d of the run at %d", second-run.Offset, run.Offset)
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("count %+d: error %q does not name %q", delta, err, want)
				}
				break
			}
			if !ok {
				t.Fatalf("count %+d: run read to its end without an error", delta)
			}
			read++
		}
		if read != record.DefaultBatchCap {
			t.Fatalf("count %+d: %d records read before the bad frame, want %d", delta, read, record.DefaultBatchCap)
		}
	}
}

// TestEmptyRun: a zero-record run occupies no bytes and reads back empty.
func TestEmptyRun(t *testing.T) {
	f, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run, err := f.WriteRun(nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Length != 0 {
		t.Fatalf("empty run occupies %d bytes", run.Length)
	}
	if got := drain(t, f.OpenRun(run)); len(got) != 0 {
		t.Fatalf("empty run yielded %d records", len(got))
	}
}

// TestMergeOrderAndStability: a k-way merge of sorted runs yields globally
// sorted output, with equal keys emitted in cursor order (run 0 before run 1
// before the in-memory remainder).
func TestMergeOrderAndStability(t *testing.T) {
	f, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Three sources with overlapping keys; field 1 tags the source.
	mk := func(tag int64, keys ...int64) []record.Record {
		out := make([]record.Record, len(keys))
		for i, k := range keys {
			out[i] = record.Record{record.Int(k), record.Int(tag)}
		}
		return out
	}
	runA, err := f.WriteRun(mk(0, 1, 3, 3, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	runB, err := f.WriteRun(mk(1, 1, 2, 3, 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	resident := mk(2, 3, 4, 9)

	cmp := func(a, b record.Record) int { return a.CompareOn(b, []int{0}) }
	m, err := NewMerger([]Cursor{f.OpenRun(runA), f.OpenRun(runB), NewSliceCursor(resident)}, cmp)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, m)
	if len(got) != 13 {
		t.Fatalf("merged %d records, want 13", len(got))
	}
	for i := 1; i < len(got); i++ {
		c := cmp(got[i-1], got[i])
		if c > 0 {
			t.Fatalf("merge out of order at %d: %v after %v", i, got[i], got[i-1])
		}
		if c == 0 && got[i-1].Field(1).AsInt() > got[i].Field(1).AsInt() {
			t.Fatalf("tie at %d broken out of cursor order: tag %d after %d",
				i, got[i].Field(1).AsInt(), got[i-1].Field(1).AsInt())
		}
	}
}

// TestMergeRandomAgainstSort: merging random sorted shards equals one global
// stable sort.
func TestMergeRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var all []int64
	var cursors []Cursor
	for s := 0; s < 7; s++ {
		vals := make([]int64, rng.Intn(400))
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		all = append(all, vals...)
		run, err := f.WriteRun(intRecs(vals...))
		if err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, f.OpenRun(run))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	m, err := NewMerger(cursors, func(a, b record.Record) int { return a.CompareOn(b, []int{0}) })
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, m)
	if len(got) != len(all) {
		t.Fatalf("merged %d records, want %d", len(got), len(all))
	}
	for i, r := range got {
		if r.Field(0).AsInt() != all[i] {
			t.Fatalf("position %d: got %d, want %d", i, r.Field(0).AsInt(), all[i])
		}
	}
}

// TestCloseRemoves: Close unlinks the temp file and is idempotent.
func TestCloseRemoves(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteRun(intRecs(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	path := f.path
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatalf("spill file %s still exists after Close", path)
	}
}

// TestWriteRunShortWriteStickyAndUnlinks pins the writer's error contract
// with an injected short write: the failed WriteRun surfaces the injected
// error, every later WriteRun returns that same first error (a torn frame
// desynchronizes the file cursor from the run offsets, so writing more runs
// would frame-shift readers), and Close both surfaces the first error — not
// whatever close or unlink returned afterwards — and still removes the temp
// file.
func TestWriteRunShortWriteStickyAndUnlinks(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, 2, faultfs.ShortWrite) // op 1 create, op 2 first frame write
	f, err := CreateIn(inj, dir)
	if err != nil {
		t.Fatal(err)
	}

	_, err = f.WriteRun(intRecs(3, 1, 2))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("WriteRun err = %v, want io.ErrShortWrite", err)
	}
	first := err

	// The injector fires once, so this write would succeed on disk — the
	// sticky error must refuse it anyway.
	if _, err := f.WriteRun(intRecs(9)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("WriteRun after failure err = %v, want the first error to stick", err)
	}

	if err := f.Close(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Close err = %v, want the first write error %v", err, first)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("torn spill file leaked: %v", ents)
	}
	// Idempotent close after failure keeps reporting the first error.
	if err := f.Close(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("second Close err = %v, want the first write error", err)
	}
}

// TestWriteRunENOSPCUnlinks: a plain failed write (no bytes persisted) also
// sticks and unlinks.
func TestWriteRunENOSPCUnlinks(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, 2, faultfs.ENOSPC)
	f, err := CreateIn(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteRun(intRecs(1, 2)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("WriteRun err = %v, want ENOSPC", err)
	}
	if err := f.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close err = %v, want ENOSPC", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill file leaked after ENOSPC: %v", ents)
	}
}

// TestReadErrorSurfacesFromRunReader: an injected read fault propagates out
// of RunReader.Next as an error (not a silent truncation).
func TestReadErrorSurfacesFromRunReader(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, 3, faultfs.ReadErr) // create, write, then first read
	f, err := CreateIn(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run, err := f.WriteRun(intRecs(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = f.OpenRun(run).Next()
	if !errors.Is(err, faultfs.ErrInjectedRead) {
		t.Fatalf("Next err = %v, want the injected read error", err)
	}
}
