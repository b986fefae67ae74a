package record

import (
	"testing"
)

func TestBatchAppendAndFlushSignal(t *testing.T) {
	b := NewBatch(3)
	if b.Cap() != 3 || b.Len() != 0 || b.EncodedSize() != 0 {
		t.Fatalf("fresh batch: cap=%d len=%d size=%d", b.Cap(), b.Len(), b.EncodedSize())
	}
	r := Record{Int(1), String("xy")}
	if b.Append(r) {
		t.Error("batch reported full after 1/3 records")
	}
	if b.Append(r) {
		t.Error("batch reported full after 2/3 records")
	}
	if !b.Append(r) {
		t.Error("batch did not report full at capacity")
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

func TestBatchEncodedSizeMatchesRecords(t *testing.T) {
	b := NewBatch(8)
	recs := []Record{
		{Int(7)},
		{Float(1.5), Bool(true)},
		{String("hello"), Null, Int(-2)},
	}
	want := 0
	for _, r := range recs {
		b.Append(r)
		want += r.EncodedSize()
	}
	if got := b.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, want %d (incremental total must equal per-record sum)", got, want)
	}
	if got := DataSet(b.Records()).TotalSize(); got != want {
		t.Errorf("TotalSize over Records() = %d, want %d", got, want)
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch(4)
	b.Append(Record{Int(1)})
	b.Append(Record{Int(2)})
	b.Reset()
	if b.Len() != 0 || b.EncodedSize() != 0 {
		t.Errorf("after Reset: len=%d size=%d", b.Len(), b.EncodedSize())
	}
	if b.Cap() != 4 {
		t.Errorf("Reset changed capacity to %d", b.Cap())
	}
	// The backing array must not pin record references.
	full := b.recs[:cap(b.recs)]
	for i, r := range full[:2] {
		if r != nil {
			t.Errorf("slot %d still references a record after Reset", i)
		}
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := GetBatch()
	if b.Cap() != DefaultBatchCap {
		t.Fatalf("pooled batch cap = %d, want %d", b.Cap(), DefaultBatchCap)
	}
	b.Append(Record{Int(1)})
	PutBatch(b)
	b2 := GetBatch()
	if b2.Len() != 0 || b2.EncodedSize() != 0 {
		t.Errorf("pool returned a dirty batch: len=%d size=%d", b2.Len(), b2.EncodedSize())
	}
	PutBatch(b2)
	// Non-default capacities and nil must be rejected without panicking.
	PutBatch(NewBatch(7))
	PutBatch(nil)
}
