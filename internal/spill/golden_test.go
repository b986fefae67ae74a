package spill

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blackboxflow/internal/record"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRunRecords builds a deterministic sorted run that spans multiple
// frames (record.DefaultBatchCap records per frame), mixing arities and
// kinds so the fixture pins the frame headers, the per-frame record counts,
// and the record payload layout all at once.
func goldenRunRecords() []record.Record {
	n := record.DefaultBatchCap + 37 // two frames, second partially filled
	recs := make([]record.Record, n)
	words := []string{"ab", "cd", "ab", ""}
	for i := range recs {
		switch i % 4 {
		case 0:
			recs[i] = record.Record{record.Int(int64(i))}
		case 1:
			recs[i] = record.Record{record.Int(int64(i)), record.String(words[i%len(words)])}
		case 2:
			recs[i] = record.Record{record.Int(int64(i)), record.Float(float64(i) + 0.5), record.Bool(i%8 == 2)}
		default:
			recs[i] = record.Record{record.Int(int64(i)), record.Null}
		}
	}
	return recs
}

// TestGoldenSpillFrameFormat pins the on-disk run format to a committed
// fixture: WriteRun must reproduce the exact file bytes, and RunReader must
// stream back records whose re-encoding matches the records written — so
// a writer change cannot silently alter the spill format.
func TestGoldenSpillFrameFormat(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	recs := goldenRunRecords()
	run, err := f.WriteRun(recs)
	if err != nil {
		t.Fatal(err)
	}

	// The spill file is unlinked on Close, so capture its bytes now.
	entries, err := filepath.Glob(filepath.Join(dir, "blackboxflow-spill-*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one spill file, got %v (err %v)", entries, err)
	}
	got, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != run.Length {
		t.Fatalf("file holds %d bytes, run.Length %d", len(got), run.Length)
	}

	path := filepath.Join("testdata", "golden_run.bin")
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
		t.Fatalf("spill run bytes diverge from committed fixture (len %d vs %d)", len(got), len(want))
	}

	// RunReader must reproduce the written records exactly (byte-compared
	// through the wire codec, which pins kind and payload).
	rr := f.OpenRun(run)
	for i, wantRec := range recs {
		rec, ok, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("run ended early at record %d of %d", i, len(recs))
		}
		if !bytes.Equal(rec.AppendEncoded(nil), wantRec.AppendEncoded(nil)) {
			t.Fatalf("record %d read back as %v, want %v", i, rec, wantRec)
		}
	}
	if _, ok, err := rr.Next(); ok || err != nil {
		t.Fatalf("expected clean end of run, got ok=%v err=%v", ok, err)
	}
}
