package record

import (
	"cmp"
	"math"
	"strings"
)

// refEqual and refCompare are Value.Equal and Value.Compare as they were
// before either had a fast path, kept as the reference FuzzValue checks the
// methods against on every pair: grouping, joins, the spill merge and the
// canonical output order all rest on these two agreeing with each other
// and with their history. Their helpers are frozen here too, so a change to
// the live ones cannot move the reference with it; only the payload
// accessors (str, float) are shared.
func refEqual(v, o Value) bool {
	if v.kind != o.kind {
		return refIsNumeric(v) && refIsNumeric(o) && refCompareNumeric(v, o) == 0
	}
	switch v.kind {
	case KindString:
		return v.str() == o.str()
	case KindFloat:
		return cmp.Compare(v.float(), o.float()) == 0
	default:
		return v.n == o.n // Null (both 0), int bits, bool 0/1
	}
}

func refIsNumeric(v Value) bool { return v.kind == KindInt || v.kind == KindFloat }

func refCompare(v, o Value) int {
	vr, or := refRank(v), refRank(o)
	if vr != or {
		return refSign(vr - or)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmp.Compare(v.n, o.n)
	case KindString:
		return strings.Compare(v.str(), o.str())
	default:
		return refCompareNumeric(v, o)
	}
}

func refCompareNumeric(v, o Value) int {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return cmp.Compare(int64(v.n), int64(o.n))
	case v.kind == KindInt:
		return refCompareIntFloat(int64(v.n), o.float())
	case o.kind == KindInt:
		return -refCompareIntFloat(int64(o.n), v.float())
	default:
		return cmp.Compare(v.float(), o.float())
	}
}

func refCompareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 1
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

func refRank(v Value) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func refSign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}
