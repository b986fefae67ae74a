package record

import "sync"

// DefaultBatchCap is the number of records a pooled Batch holds before the
// engine flushes it over a shuffle channel. 1024 records amortizes channel
// synchronization to ~0.1% of the per-record cost while keeping a batch of
// typical relational rows well under L2 size.
const DefaultBatchCap = 1024

// Batch is a fixed-capacity run of records moving through the engine as one
// unit. It keeps a running encoded-size total so shuffle byte accounting is
// O(1) per batch instead of a second O(records × fields) pass.
//
// Batches are reference containers: appending does not copy the records'
// field storage, so a Batch must only carry records that the producer no
// longer mutates (the engine's UDF interpreter always emits fresh records).
type Batch struct {
	recs  []Record
	bytes int
}

// NewBatch returns an empty batch with the given capacity.
func NewBatch(capacity int) *Batch {
	if capacity < 1 {
		capacity = DefaultBatchCap
	}
	return &Batch{recs: make([]Record, 0, capacity)}
}

// batchPool recycles DefaultBatchCap batches across shuffle executions.
var batchPool = sync.Pool{
	New: func() any { return NewBatch(DefaultBatchCap) },
}

// GetBatch returns an empty DefaultBatchCap batch from the pool.
func GetBatch() *Batch {
	return batchPool.Get().(*Batch)
}

// PutBatch resets the batch and returns it to the pool. The caller must not
// retain the batch or its Records slice afterwards. Batches with a
// non-default capacity are dropped rather than pooled.
func PutBatch(b *Batch) {
	if b == nil || cap(b.recs) != DefaultBatchCap {
		return
	}
	b.Reset()
	batchPool.Put(b)
}

// Append adds a record and reports whether the batch is now full and should
// be flushed.
func (b *Batch) Append(r Record) bool {
	b.recs = append(b.recs, r)
	b.bytes += r.EncodedSize()
	return len(b.recs) == cap(b.recs)
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.recs) }

// Cap returns the batch's fixed capacity.
func (b *Batch) Cap() int { return cap(b.recs) }

// Records exposes the batched records. The slice is owned by the batch and
// becomes invalid once the batch is returned to the pool.
func (b *Batch) Records() []Record { return b.recs }

// EncodedSize returns the wire size of all records in the batch. This is the
// fast path: the total is maintained incrementally by Append, so flushing a
// batch never re-walks its records.
func (b *Batch) EncodedSize() int { return b.bytes }

// Reset empties the batch, keeping its capacity. Record references are
// cleared so pooled batches do not pin field storage across executions.
func (b *Batch) Reset() {
	for i := range b.recs {
		b.recs[i] = nil
	}
	b.recs = b.recs[:0]
	b.bytes = 0
}
