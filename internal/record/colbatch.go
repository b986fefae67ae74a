package record

import (
	"cmp"
	"math"
	"sync"
)

// This file implements the engine's column-major batch: the same fixed
// window of records a Batch holds, stored as per-attribute typed arrays
// instead of boxed Record slices. The layout follows the usual columnar
// playbook (see DESIGN.md "Columnar layout"):
//
//   - one colVec per global attribute position, holding a kind tag array, a
//     validity bitmap (bit set ⇔ cell non-null), and a uint64 payload array
//     (int bits, float bits, bool 0/1, or a string dictionary code);
//   - a batch-local string dictionary, so equal strings share one code and
//     string equality inside the batch is an integer compare;
//   - a per-row arity array, so rows narrower than the widest row encode
//     with their true field count (cells past a row's arity are absent, not
//     Null — the wire codec distinguishes the two);
//   - an optional per-row key-hash cache, filled by the combining shuffle
//     senders at routing time and reused by CombineInto, so the grouping pass
//     never hashes a record twice.
//
// Row-view accessors (Row, Field, AppendEncodedRow) preserve the record
// semantics exactly: materializing a row and encoding it yields byte-for-byte
// the encoding of the record that was appended, so the wire codec and the
// batch-framed spill format are unchanged by the columnar flip (pinned by
// the golden-file and property round-trip tests).

// colVec is one attribute position's column.
type colVec struct {
	tags  []uint8  // Kind per row (KindNull for null and absent cells)
	valid []uint64 // validity bitmap, bit row&63 of word row>>6
	nums  []uint64 // int bits / float bits / bool 0|1 / string dict code
}

// ColBatch is a column-major batch of records with a fixed row capacity.
type ColBatch struct {
	n      int
	target int      // row capacity Append reports "full" at
	widths []int32  // per-row arity
	cols   []colVec // one per attribute position, len = widest row seen
	bytes  int      // running wire size of all rows

	dict    []string // code → string
	dictIdx map[string]uint32

	// hashes caches the key hash of every row over hashKeys, maintained by
	// AppendWithHash; nil hashKeys means no valid cache.
	hashes   []uint64
	hashKeys []int
}

// NewColBatch returns an empty columnar batch with the given row capacity.
func NewColBatch(capacity int) *ColBatch {
	if capacity < 1 {
		capacity = DefaultBatchCap
	}
	return &ColBatch{target: capacity, dictIdx: make(map[string]uint32)}
}

// colBatchPool recycles DefaultBatchCap columnar batches across shuffle
// executions, mirroring batchPool.
var colBatchPool = sync.Pool{
	New: func() any { return NewColBatch(DefaultBatchCap) },
}

// GetColBatch returns an empty DefaultBatchCap columnar batch from the pool.
func GetColBatch() *ColBatch {
	return colBatchPool.Get().(*ColBatch)
}

// PutColBatch resets the batch and returns it to the pool. Batches with a
// non-default capacity are dropped rather than pooled.
func PutColBatch(cb *ColBatch) {
	if cb == nil || cb.target != DefaultBatchCap {
		return
	}
	cb.Reset()
	colBatchPool.Put(cb)
}

// Len returns the number of rows in the batch.
func (cb *ColBatch) Len() int { return cb.n }

// Cap returns the batch's fixed row capacity.
func (cb *ColBatch) Cap() int { return cb.target }

// EncodedSize returns the wire size of all rows, maintained incrementally by
// Append like Batch.EncodedSize.
func (cb *ColBatch) EncodedSize() int { return cb.bytes }

// Width returns the number of attribute positions (the widest row's arity).
func (cb *ColBatch) Width() int { return len(cb.cols) }

// Reset empties the batch, keeping column capacity and dictionary buckets.
// String references are dropped so pooled batches do not pin payloads.
func (cb *ColBatch) Reset() {
	for c := range cb.cols {
		cv := &cb.cols[c]
		cv.tags = cv.tags[:0]
		cv.nums = cv.nums[:0]
		clear(cv.valid) // bits are OR'd in, so stale words must be zeroed
		cv.valid = cv.valid[:0]
	}
	clear(cb.dict) // drop string references before truncating
	cb.dict = cb.dict[:0]
	clear(cb.dictIdx)
	cb.widths = cb.widths[:0]
	cb.hashes = cb.hashes[:0]
	cb.hashKeys = nil
	cb.bytes = 0
	cb.n = 0
}

// code interns s in the batch dictionary and returns its code.
func (cb *ColBatch) code(s string) uint64 {
	if c, ok := cb.dictIdx[s]; ok {
		return uint64(c)
	}
	c := uint32(len(cb.dict))
	cb.dict = append(cb.dict, s)
	cb.dictIdx[s] = c
	return uint64(c)
}

// growCols widens the batch to w attribute positions, backfilling the new
// columns with null cells for the rows already appended.
func (cb *ColBatch) growCols(w int) {
	for len(cb.cols) < w {
		cv := colVec{}
		if cb.n > 0 {
			cv.tags = make([]uint8, cb.n, max(cb.n, cb.target))
			cv.nums = make([]uint64, cb.n, max(cb.n, cb.target))
			cv.valid = make([]uint64, (cb.n+63)/64, (max(cb.n, cb.target)+63)/64)
		}
		cb.cols = append(cb.cols, cv)
	}
}

// Append adds a record (copying its cells into the columns) and reports
// whether the batch is now full, mirroring Batch.Append. Appending without
// AppendWithHash invalidates any cached key hashes.
func (cb *ColBatch) Append(r Record) bool {
	cb.hashKeys = nil
	cb.appendRow(r)
	return cb.n == cb.target
}

// AppendWithHash is Append for the combining senders: h must be r.Hash(keys),
// already computed for routing; the batch caches it so CombineInto never hashes
// the row again. All rows of a batch must be appended with the same keys.
func (cb *ColBatch) AppendWithHash(r Record, keys []int, h uint64) bool {
	if cb.n == 0 {
		cb.hashKeys = keys
		cb.hashes = cb.hashes[:0]
	}
	cb.hashes = append(cb.hashes, h)
	cb.appendRow(r)
	return cb.n == cb.target
}

func (cb *ColBatch) appendRow(r Record) {
	row := cb.n
	if len(r) > len(cb.cols) {
		cb.growCols(len(r))
	}
	word := row >> 6
	bit := uint64(1) << (row & 63)
	for c := range cb.cols {
		cv := &cb.cols[c]
		var tag uint8
		var num uint64
		if c < len(r) {
			v := r[c]
			tag, num = uint8(v.kind), v.n
			if v.kind == KindString {
				num = cb.code(v.str())
			}
		}
		cv.tags = append(cv.tags, tag)
		cv.nums = append(cv.nums, num)
		for len(cv.valid) <= word {
			cv.valid = append(cv.valid, 0)
		}
		if tag != uint8(KindNull) {
			cv.valid[word] |= bit
		}
	}
	cb.widths = append(cb.widths, int32(len(r)))
	cb.bytes += r.EncodedSize()
	cb.n++
}

// Field returns the cell at (row, f) as a Value, Null when f is past the
// row's arity — exactly Record.Field on the materialized row, without
// materializing it.
func (cb *ColBatch) Field(row, f int) Value {
	if row < 0 || row >= cb.n || f < 0 || f >= len(cb.cols) {
		return Null
	}
	cv := &cb.cols[f]
	k := Kind(cv.tags[row])
	if k == KindString {
		return String(cb.dict[cv.nums[row]])
	}
	return Value{kind: k, n: cv.nums[row]} // a null cell's payload is 0
}

// Row materializes row i as a fresh Record of the row's original arity.
func (cb *ColBatch) Row(i int) Record {
	w := int(cb.widths[i])
	r := make(Record, w)
	for c := 0; c < w; c++ {
		r[c] = cb.Field(i, c)
	}
	return r
}

// Rows materializes every row, in order.
func (cb *ColBatch) Rows() []Record {
	out := make([]Record, cb.n)
	for i := range out {
		out[i] = cb.Row(i)
	}
	return out
}

// AppendEncodedRow appends row i's wire encoding to buf — byte-for-byte the
// encoding Record.AppendEncoded produces for the record that was appended.
func (cb *ColBatch) AppendEncodedRow(buf []byte, i int) []byte {
	w := int(cb.widths[i])
	buf = append(buf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	for c := 0; c < w; c++ {
		cv := &cb.cols[c]
		k := Kind(cv.tags[i])
		buf = append(buf, byte(k))
		switch k {
		case KindInt, KindFloat:
			x := cv.nums[i]
			buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case KindString:
			s := cb.dict[cv.nums[i]]
			l := uint32(len(s))
			buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
			buf = append(buf, s...)
		case KindBool:
			if cv.nums[i] != 0 {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// AppendEncoded appends the wire encoding of every row to buf; the bytes
// appended equal cb.EncodedSize(), like Batch.AppendEncoded.
func (cb *ColBatch) AppendEncoded(buf []byte) []byte {
	for i := 0; i < cb.n; i++ {
		buf = cb.AppendEncodedRow(buf, i)
	}
	return buf
}

// rowHash recomputes row i's key hash from the columns — the fallback when
// CombineInto runs over keys the append path did not cache.
func (cb *ColBatch) rowHash(i int, keys []int) uint64 {
	h := hashOffset
	for _, f := range keys {
		h = (h*hashPrime ^ cb.Field(i, f).Hash())
	}
	return h
}

// sameKeys reports whether the cached hashes cover exactly these key fields.
func (cb *ColBatch) sameKeys(keys []int) bool {
	if cb.hashKeys == nil || len(cb.hashKeys) != len(keys) || len(cb.hashes) != cb.n {
		return false
	}
	for i, k := range cb.hashKeys {
		if k != keys[i] {
			return false
		}
	}
	return true
}

// equalCellsOn reports whether rows i and j agree on the key fields under
// Value.Equal semantics: nulls equal, strings by dictionary code, numeric
// kinds across int/float by numeric value.
func (cb *ColBatch) equalCellsOn(i, j int, keys []int) bool {
	for _, f := range keys {
		if f < 0 || f >= len(cb.cols) {
			continue // both cells Null
		}
		cv := &cb.cols[f]
		ti, tj := Kind(cv.tags[i]), Kind(cv.tags[j])
		if ti == tj {
			switch ti {
			case KindNull:
				continue
			case KindFloat:
				// Compare as floats, not bits: -0.0 == 0.0, and every NaN
				// equals every NaN, as Value.Equal has it.
				if cmp.Compare(math.Float64frombits(cv.nums[i]), math.Float64frombits(cv.nums[j])) != 0 {
					return false
				}
			default:
				// Int payloads, bool 0/1, and dictionary codes all compare
				// exactly (the dictionary interns, so code equality is string
				// equality).
				if cv.nums[i] != cv.nums[j] {
					return false
				}
			}
			continue
		}
		// Mixed kinds: only numeric cross-kind equality survives.
		vi, vj := cb.Field(i, f), cb.Field(j, f)
		if !vi.Equal(vj) {
			return false
		}
	}
	return true
}

// ColGroup is a zero-copy view of one key group inside a ColBatch: the rows
// of the group in arrival order. It satisfies the interpreter's GroupSource,
// so a reduce UDF aggregates straight over the columns — At materializes a
// row only when the UDF actually asks for one (typically just the group
// head).
type ColGroup struct {
	cb   *ColBatch
	rows []int32
}

// Len returns the group's record count.
func (g ColGroup) Len() int { return len(g.rows) }

// At materializes the group's i-th record.
func (g ColGroup) At(i int) Record { return g.cb.Row(int(g.rows[i])) }

// Field returns field f of the group's i-th record without materializing it.
func (g ColGroup) Field(i, f int) Value { return g.cb.Field(int(g.rows[i]), f) }

// CombineInto is the primitive behind the engine's pre-shuffle partial
// aggregation: it groups the batch's rows by the key fields — reusing the
// key hashes cached at routing time, comparing candidate rows column-wise —
// and calls fn once per group with a sink that appends to out. Groups form
// in first-occurrence order with rows in arrival order, so a deterministic
// producer yields a deterministic combined batch. What fn emits for all
// groups must fit out's capacity; this holds for any fn that emits at most
// one record per group, which is what the optimizer's combiner safety check
// guarantees. Returns the number of groups (= fn invocations).
func (cb *ColBatch) CombineInto(keys []int, out *Batch, fn func(g ColGroup, emit func(Record) error) error) (int, error) {
	if cb.n == 0 {
		return 0, nil
	}
	type group struct {
		head int32 // first row, the group's key representative
		rows []int32
	}
	groups := make([]group, 0, 16)
	buckets := map[uint64][]int32{}
	cached := cb.sameKeys(keys)
	for i := 0; i < cb.n; i++ {
		var h uint64
		if cached {
			h = cb.hashes[i]
		} else {
			h = cb.rowHash(i, keys)
		}
		gi := int32(-1)
		for _, idx := range buckets[h] {
			if cb.equalCellsOn(i, int(groups[idx].head), keys) {
				gi = idx
				break
			}
		}
		if gi < 0 {
			gi = int32(len(groups))
			groups = append(groups, group{head: int32(i)})
			buckets[h] = append(buckets[h], gi)
		}
		groups[gi].rows = append(groups[gi].rows, int32(i))
	}
	emit := func(r Record) error {
		out.Append(r)
		return nil
	}
	for gi := range groups {
		if err := fn(ColGroup{cb: cb, rows: groups[gi].rows}, emit); err != nil {
			return 0, err
		}
	}
	return len(groups), nil
}
