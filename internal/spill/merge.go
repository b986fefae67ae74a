package spill

import (
	"slices"

	"blackboxflow/internal/record"
)

// Cursor is a stream of records in sorted order — a spill RunReader or an
// in-memory sorted slice. Next's second result is false at end of stream.
type Cursor interface {
	Next() (record.Record, bool, error)
}

// sliceCursor iterates an in-memory sorted slice.
type sliceCursor struct {
	recs []record.Record
	pos  int
}

// NewSliceCursor wraps an already-sorted in-memory slice as a Cursor, so a
// partition's resident remainder can merge with its on-disk runs.
func NewSliceCursor(recs []record.Record) Cursor {
	return &sliceCursor{recs: recs}
}

func (c *sliceCursor) Next() (record.Record, bool, error) {
	if c.pos >= len(c.recs) {
		return nil, false, nil
	}
	r := c.recs[c.pos]
	c.pos++
	return r, true, nil
}

// Groups merges cursors sorted on the same key fields into key groups:
// ascending key, and within a group each cursor's records in the order the
// cursors were given, then in the cursor's own order. Given in spill order —
// oldest run first, resident remainder last — that is arrival order within
// each key, the order one stable sort of every record gives.
type Groups struct {
	srcs  []Cursor        // the cursors not yet exhausted, in the order given
	heads []record.Record // heads[i] is srcs[i]'s next record; nil until the first Next
	keys  []int
	group []record.Record // the last group, its array reused by the next
}

// NewGroups merges cursors, which it takes over, on the key fields keys.
// Nothing is read until the first Next.
func NewGroups(cursors []Cursor, keys []int) *Groups {
	return &Groups{srcs: cursors, keys: keys}
}

// Next returns the next key group, or nil when every cursor is exhausted.
// The group is valid until the next call. It finds the smallest head key by
// a scan of the heads, then takes that key's records cursor by cursor from
// the first cursor that holds it; the cursors before that one hold larger
// keys.
func (g *Groups) Next() ([]record.Record, error) {
	if g.heads == nil {
		g.heads = make([]record.Record, len(g.srcs))
		for i := len(g.srcs) - 1; i >= 0; i-- {
			if err := g.advance(i); err != nil {
				return nil, err
			}
		}
	}
	if len(g.heads) == 0 {
		return nil, nil
	}
	first := 0
	for i := 1; i < len(g.heads); i++ {
		if g.heads[i].CompareOn(g.heads[first], g.keys) < 0 {
			first = i
		}
	}
	key := g.heads[first]
	g.group = g.group[:0]
	for i := first; i < len(g.heads); {
		if g.heads[i].CompareOn(key, g.keys) != 0 {
			i++
			continue
		}
		g.group = append(g.group, g.heads[i])
		if err := g.advance(i); err != nil {
			return nil, err
		}
	}
	return g.group, nil
}

// advance reads cursor i's next record into heads[i], or drops the cursor
// at its end, so that i names the cursor after it.
func (g *Groups) advance(i int) error {
	rec, ok, err := g.srcs[i].Next()
	if err != nil {
		return err
	}
	if ok {
		g.heads[i] = rec
	} else {
		g.srcs, g.heads = slices.Delete(g.srcs, i, i+1), slices.Delete(g.heads, i, i+1)
	}
	return nil
}
