package record

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the pool DecodeBatch decodes frames into. A decoded frame's
// records are windows of one []Value slab; the slab comes from the pool of
// its size class and goes back through Slab.Release once no record points
// into it. Only the Values are pooled: a record copied out of a frame
// shares the frame's string bytes, so a frame's string arena is never
// reused.

const (
	minSlabBits = 6  // the smallest class holds 64 Values
	maxSlabBits = 17 // the largest 131,072 (3 MiB); larger frames are not pooled
)

// slabPools[c] holds the arrays of class c, 1<<(c+minSlabBits) Values
// long, each by a pointer to its first element, which an interface holds
// without allocating. A pooled array is all Null (or, under poisoning,
// poisoned).
var slabPools [maxSlabBits - minSlabBits + 1]sync.Pool

// slabClass returns the size class of a slab of at least n Values and the
// class's size: n rounded up to a power of two, and to no less than 64. It
// returns size 0 for n too large to pool.
func slabClass(n int) (class, size int) {
	e := bits.Len(uint(max(n, 1<<minSlabBits) - 1)) // 1<<(e-1) < n <= 1<<e
	if e > maxSlabBits {
		return 0, 0
	}
	return e - minSlabBits, 1 << e
}

// slabsMade counts the slabs getSlab allocated because the pool had none.
var slabsMade atomic.Int64

// SlabsMade reports how many slabs of a pooled size the process has
// allocated because their class's pool was empty. The allocation pins read
// it.
func SlabsMade() int64 { return slabsMade.Load() }

// A Slab is the array of Values that a decoded frame's records are windows
// of (DecodeBatch). Whoever takes it from its batch (Batch.TakeSlab) owns
// it, and gives it back with Release once no record points into it.
type Slab struct{ vals []Value }

// getSlab returns a slab of n Values from the pool of n's size class, or a
// fresh one when the class is empty or n is too large to pool. Its Values
// are not zeroed: the decoder writes every one.
func getSlab(n int) []Value {
	if n == 0 {
		return nil
	}
	c, size := slabClass(n)
	if size == 0 {
		return make([]Value, n)
	}
	if p, _ := slabPools[c].Get().(*Value); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	slabsMade.Add(1)
	return make([]Value, n, size)
}

// Release gives the slab back to its pool, cleared so that the pool pins no
// string. The caller must hold no record that points into it. Releasing the
// zero Slab, or one too large to pool, does nothing.
func (s Slab) Release() {
	v := s.vals
	c, size := slabClass(cap(v))
	if cap(v) != size {
		return
	}
	if poison.Load() {
		for i := range v {
			v[i] = poisoned
		}
	} else {
		clear(v)
	}
	slabPools[c].Put(&v[:1][0])
}

// poisoned is the value a poisoned release writes over a slab: a string no
// flow produces.
var poisoned = String("\x00released slab\x00")

// poison makes Release fill a slab with poisoned rather than clear it.
var poison atomic.Bool

// PoisonReleasedSlabs turns poisoning on or off for every later Release. It
// is a hook for tests: with it on, a record that still points into a slab
// after its release reads a string no flow produces until the slab is
// reused, so a differential test comparing outputs fails where it could
// otherwise pass on whatever the next frame happened to write.
func PoisonReleasedSlabs(on bool) { poison.Store(on) }
