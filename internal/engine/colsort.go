package engine

import (
	"cmp"
	"math"
	"sort"

	"blackboxflow/internal/record"
)

// This file implements the columnar spill-sort: instead of re-reading every
// key field through the record comparator on each of the O(n log n)
// comparisons, the sort decorates the partition once into per-field column
// vectors — a kind rank, a numeric value, and a dictionary rank for strings
// — and compares those flat arrays. The decoration encodes exactly
// record.Value.Compare's total order (Null < Bool < numeric < String;
// booleans false < true; numerics by exact value with every NaN below every
// number; strings lexicographic), and the stable sort sees the same
// comparison outcome for every pair a record-comparator sort would, so both
// produce the identical permutation — the property the differential suite
// pins across the spill and merge-join paths.

// sortRecs stably sorts a partition's records on the key fields (ascending
// key order, arrival order preserved within equal keys) through the
// decorated column-vector sort. It produces the same permutation as a
// record-comparator sort, which colsort_test.go pins against a reference
// implementation.
func (e *Engine) sortRecs(recs []record.Record, keys []int) {
	sortByKeyColumnar(recs, keys)
}

// Kind ranks, mirroring record.Value.Compare's cross-kind ordering. NaN
// ranks on its own, just below the numbers: Compare orders it below every
// number and equal to every NaN.
const (
	sortRankNull   int8 = 0
	sortRankBool   int8 = 1
	sortRankNaN    int8 = 2
	sortRankNum    int8 = 3
	sortRankString int8 = 4
)

// sortCol is one key field's decoration: the kind rank of every row, the
// numeric sort value for Bool (0/1, false < true) and numeric rows
// (AsFloat, which rounds ints beyond ±2^53 but never reorders them), the
// exact distance of an int from that rounding (dev, allocated once some int
// is off it; at most 512 either way), and the dictionary rank for String
// rows — distinct strings sorted lexicographically and numbered, so an
// int32 compare reproduces strings.Compare.
type sortCol struct {
	rank []int8
	num  []float64
	dev  []int16
	str  []int32
}

// buildSortCol decorates one key field across the partition. Out-of-range
// field indices decorate as Null, matching Record.Field.
func buildSortCol(recs []record.Record, f int) sortCol {
	n := len(recs)
	c := sortCol{rank: make([]int8, n), num: make([]float64, n)}
	var strRows []int32 // rows holding a string in this field
	var dict map[string]int32
	for i, r := range recs {
		v := r.Field(f)
		switch v.Kind() {
		case record.KindBool:
			c.rank[i] = sortRankBool
			if v.AsBool() {
				c.num[i] = 1
			}
		case record.KindFloat:
			c.rank[i] = sortRankNum
			c.num[i] = v.AsFloat()
			if c.num[i] != c.num[i] {
				c.rank[i] = sortRankNaN
			}
		case record.KindInt:
			c.rank[i] = sortRankNum
			c.num[i] = v.AsFloat()
			if d := intDev(v.AsInt(), c.num[i]); d != 0 {
				if c.dev == nil {
					c.dev = make([]int16, n)
				}
				c.dev[i] = d
			}
		case record.KindString:
			c.rank[i] = sortRankString
			if dict == nil {
				dict = make(map[string]int32)
			}
			dict[v.AsString()] = 0
			strRows = append(strRows, int32(i))
		}
	}
	if dict == nil {
		return c
	}
	distinct := make([]string, 0, len(dict))
	for s := range dict {
		distinct = append(distinct, s)
	}
	sort.Strings(distinct)
	for rk, s := range distinct {
		dict[s] = int32(rk)
	}
	c.str = make([]int32, n)
	for _, i := range strRows {
		c.str[i] = dict[recs[i].Field(f).AsString()]
	}
	return c
}

// intDev is x minus f, its float64 rounding, computed without overflow when
// f is 2^63.
func intDev(x int64, f float64) int16 {
	if f >= 0x1p63 {
		return int16(x - math.MaxInt64 - 1)
	}
	return int16(x - int64(f))
}

// cmp compares the decorated field of rows i and j with Value.Compare
// semantics. Bool and numeric rows share the num vector: a 0/1 float
// compare orders booleans, NaN never reaches it (it has its own rank), and
// rows whose roundings tie are ordered by their exact distance from it.
func (c *sortCol) cmp(i, j int) int {
	ri, rj := c.rank[i], c.rank[j]
	if ri != rj {
		if ri < rj {
			return -1
		}
		return 1
	}
	switch ri {
	case sortRankString:
		si, sj := c.str[i], c.str[j]
		if si != sj {
			if si < sj {
				return -1
			}
			return 1
		}
		return 0
	case sortRankNull, sortRankNaN:
		return 0
	default:
		a, b := c.num[i], c.num[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b && c.dev != nil:
			return cmp.Compare(c.dev[i], c.dev[j])
		default:
			return 0
		}
	}
}

// colSorter sorts the record slice and its decorations together, so the
// comparator only ever touches the flat column vectors.
type colSorter struct {
	recs []record.Record
	cols []sortCol
}

func (s *colSorter) Len() int { return len(s.recs) }

func (s *colSorter) Less(i, j int) bool {
	for k := range s.cols {
		if c := s.cols[k].cmp(i, j); c != 0 {
			return c < 0
		}
	}
	return false
}

func (s *colSorter) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	for k := range s.cols {
		c := &s.cols[k]
		c.rank[i], c.rank[j] = c.rank[j], c.rank[i]
		c.num[i], c.num[j] = c.num[j], c.num[i]
		if c.dev != nil {
			c.dev[i], c.dev[j] = c.dev[j], c.dev[i]
		}
		if c.str != nil {
			c.str[i], c.str[j] = c.str[j], c.str[i]
		}
	}
}

// sortByKeyColumnar stably sorts records by the key fields through decorated
// column vectors: same permutation as sortByKey, without re-projecting key
// fields or re-ranking kinds on every comparison.
func sortByKeyColumnar(recs []record.Record, keys []int) {
	if len(recs) < 2 {
		return
	}
	s := &colSorter{recs: recs, cols: make([]sortCol, len(keys))}
	for k, f := range keys {
		s.cols[k] = buildSortCol(recs, f)
	}
	sort.Stable(s)
}
