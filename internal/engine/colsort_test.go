package engine

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"blackboxflow/internal/record"
)

// sortByKey is the reference permutation oracle: a stable record-comparator
// sort by the key fields (ascending key order, arrival order preserved
// within equal keys). It was the production spill-sort before the columnar
// flip and survives here purely to pin sortByKeyColumnar against an
// independent implementation.
func sortByKey(recs []record.Record, keys []int) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].CompareOn(recs[j], keys) < 0 })
}

// edgeNumbers are ints and integral floats around ±2^53 and ±2^63, where a
// float64 comparison would round distinct ints into one key.
var edgeNumbers = []record.Value{
	record.Int(1 << 53), record.Int(1<<53 + 1), record.Float(1 << 53), record.Float(1<<53 + 2),
	record.Int(-1<<53 - 1), record.Float(-1 << 53),
	record.Int(math.MaxInt64), record.Int(math.MaxInt64 - 1), record.Float(0x1p63),
	record.Int(math.MinInt64), record.Int(math.MinInt64 + 1), record.Float(-0x1p63),
}

// randSortValue draws from a distribution built to stress every branch of
// the sort decoration: cross-kind comparisons, NaNs of different bits (which
// Value.Compare orders below every number and equal to each other), ±Inf,
// -0.0 vs 0.0, int/float collisions, ints a float64 cannot tell apart, and
// colliding strings.
func randSortValue(rng *rand.Rand) record.Value {
	switch rng.Intn(11) {
	case 0:
		return record.Null
	case 1:
		return record.Bool(rng.Intn(2) == 0)
	case 2:
		return record.Float([]float64{math.NaN(), math.Float64frombits(0xfff8000000000000)}[rng.Intn(2)])
	case 3:
		return record.Float(math.Inf(1 - 2*rng.Intn(2)))
	case 4:
		return record.Float(float64(rng.Intn(7)) - 3)
	case 5:
		return record.Float(rng.NormFloat64())
	case 6:
		return record.Float(math.Copysign(0, -1))
	case 7:
		return record.String([]string{"", "a", "ab", "b", "ba", "κλειδί"}[rng.Intn(6)])
	case 8:
		return edgeNumbers[rng.Intn(len(edgeNumbers))]
	default:
		return record.Int(int64(rng.Intn(9) - 4))
	}
}

// TestSortByKeyColumnarMatchesRowSort is the property pinning the columnar
// spill-sort: on every input — ragged arities (out-of-range key fields read
// as Null), mixed kinds in one field, NaNs, duplicate keys —
// sortByKeyColumnar must produce the exact permutation sortByKey produces,
// position by position in encoded bytes.
func TestSortByKeyColumnarMatchesRowSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		width := 1 + rng.Intn(4)
		recs := make([]record.Record, n)
		for i := range recs {
			r := make(record.Record, 1+rng.Intn(width))
			for j := range r {
				r[j] = randSortValue(rng)
			}
			recs[i] = r
		}
		nk := 1 + rng.Intn(3)
		keys := make([]int, nk)
		for i := range keys {
			keys[i] = rng.Intn(width + 1) // may exceed a record's arity
		}
		rowSorted := make([]record.Record, n)
		colSorted := make([]record.Record, n)
		copy(rowSorted, recs)
		copy(colSorted, recs)
		sortByKey(rowSorted, keys)
		sortByKeyColumnar(colSorted, keys)
		for i := range rowSorted {
			if !bytes.Equal(rowSorted[i].AppendEncoded(nil), colSorted[i].AppendEncoded(nil)) {
				t.Fatalf("trial %d keys %v: position %d is %v columnar, %v row",
					trial, keys, i, colSorted[i], rowSorted[i])
			}
		}
	}
}
