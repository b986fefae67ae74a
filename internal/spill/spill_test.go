package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
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
		second := run.Offset + record.FrameHeaderSize + int64(record.DefaultBatchCap*recs[0].EncodedSize())

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

// drainGroups reads every group of g, copying each: the next call reuses
// its array.
func drainGroups(t *testing.T, g *Groups) [][]record.Record {
	t.Helper()
	var out [][]record.Record
	for {
		grp, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if grp == nil {
			return out
		}
		out = append(out, slices.Clone(grp))
	}
}

// TestMergeOrderAndStability: a group merge of sorted runs yields one group
// per key, ascending, with a key's records in cursor order (run 0 before
// run 1 before the in-memory remainder).
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

	got := drainGroups(t, NewGroups([]Cursor{f.OpenRun(runA), f.OpenRun(runB), NewSliceCursor(resident)}, []int{0}))
	want := [][]record.Record{
		append(mk(0, 1), mk(1, 1)...),
		mk(1, 2),
		append(append(mk(0, 3, 3), mk(1, 3)...), mk(2, 3)...),
		mk(2, 4),
		mk(0, 5),
		append(append(mk(0, 9), mk(1, 9, 9)...), mk(2, 9)...),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
}

// TestMergeRandomAgainstSort: merging random sorted shards into groups —
// short runs, an empty one, runs longer than a frame whose hot keys make a
// group span frames and runs, and a resident remainder last — gives one key
// per group, keys ascending, and, concatenated, one global stable sort of
// the shards in cursor order.
func TestMergeRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Field 0 is the key, field 1 the shard, field 2 the record's position in
	// it, so a tie out of cursor order shows.
	shard := func(s, n int, hot bool) []record.Record {
		recs := make([]record.Record, n)
		for i := range recs {
			k := int64(rng.Intn(50))
			if hot && rng.Intn(2) == 0 {
				k = int64(7 + 16*rng.Intn(2))
			}
			recs[i] = record.Record{record.Int(k), record.Int(int64(s))}
		}
		slices.SortStableFunc(recs, func(a, b record.Record) int { return a.CompareOn(b, []int{0}) })
		for i, r := range recs {
			recs[i] = append(r, record.Int(int64(i)))
		}
		return recs
	}
	var all []record.Record
	var cursors []Cursor
	for s := range 11 {
		var recs []record.Record
		switch {
		case s == 3:
		case s < 7:
			recs = shard(s, rng.Intn(400), false)
		default:
			recs = shard(s, record.DefaultBatchCap+1+rng.Intn(2*record.DefaultBatchCap), true)
		}
		all = append(all, recs...)
		if s == 10 {
			cursors = append(cursors, NewSliceCursor(recs))
			continue
		}
		run, err := f.WriteRun(recs)
		if err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, f.OpenRun(run))
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].CompareOn(all[j], []int{0}) < 0 })

	var got []record.Record
	spans := false
	for i, g := range drainGroups(t, NewGroups(cursors, []int{0})) {
		for _, r := range g {
			if r.CompareOn(g[0], []int{0}) != 0 {
				t.Fatalf("group %d holds keys %v and %v", i, g[0][0], r[0])
			}
		}
		if len(got) > 0 && got[len(got)-1].CompareOn(g[0], []int{0}) >= 0 {
			t.Fatalf("group %d (key %v) does not follow key %v", i, g[0][0], got[len(got)-1][0])
		}
		// A group spans runs where its first and last records come from
		// different shards, and frames where two records of one run (shard
		// 10 is the remainder) sit either side of a frame boundary.
		for j := 1; j < len(g) && g[0][1].AsInt() != g[len(g)-1][1].AsInt(); j++ {
			a, b := g[j-1], g[j]
			spans = spans || a[1].AsInt() == b[1].AsInt() && a[1].AsInt() < 10 &&
				a[2].AsInt() < record.DefaultBatchCap && b[2].AsInt() >= record.DefaultBatchCap
		}
		got = append(got, g...)
	}
	if !spans {
		t.Fatal("no group spans frames and runs")
	}
	if len(got) != len(all) {
		t.Fatalf("merged %d records, want %d", len(got), len(all))
	}
	for i, r := range got {
		if !r.Equal(all[i]) {
			t.Fatalf("position %d: got %v, want %v", i, r, all[i])
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
