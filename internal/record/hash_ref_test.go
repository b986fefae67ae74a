package record

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refValueHash is the seed's byte-at-a-time Value.Hash, kept as the
// reference the unrolled implementation must match bit for bit: hash values
// determine shuffle routing, and routing determines which partition — and
// therefore which position in the flattened output — every record lands in,
// so a silent hash change would break the differential suite's
// byte-identity guarantee against historical outputs. It reads the value
// through the public accessors only, and its one change from the seed is
// that every NaN hashes as math.NaN(), so that NaNs, which are Equal, hash
// equally.
func refValueHash(v Value) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix(byte(v.Kind()))
	switch v.Kind() {
	case KindInt:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.AsInt()))
		for _, b := range buf {
			mix(b)
		}
	case KindFloat:
		f := v.AsFloat()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			return refValueHash(Int(int64(f)))
		}
		if math.IsNaN(f) {
			f = math.NaN()
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		for _, b := range buf {
			mix(b)
		}
	case KindString:
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	case KindBool:
		if v.AsBool() {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

// nans are NaNs with different bits: math.NaN(), the negative quiet NaN
// the hardware produces for 0/0, and a signalling NaN with a payload.
var nans = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000bad),
}

// randomValue draws a value covering every kind, including the hash edge
// cases: integral floats (hash as Int), ±Inf, NaNs, negative zero, empty and
// colliding strings.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(12) {
	case 0:
		return Null
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Int(rng.Int63() - rng.Int63())
	case 3:
		return Int(0)
	case 4:
		return Float(rng.NormFloat64() * 1e6)
	case 5:
		return Float(float64(rng.Intn(2000) - 1000)) // integral: hashes as Int
	case 6:
		return Float(math.Inf(1 - 2*rng.Intn(2)))
	case 7:
		return Float(nans[rng.Intn(len(nans))])
	case 8:
		return Float(math.Copysign(0, -1))
	case 9:
		return String("")
	case 10:
		words := []string{"alpha", "beta", "gamma", "delta", "alpha"}
		return String(words[rng.Intn(len(words))])
	default:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return String(string(b))
	}
}

func TestValueHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		v := randomValue(rng)
		got, want := v.Hash(), refValueHash(v)
		if got != want {
			t.Fatalf("Hash(%v) = %#x, reference %#x", v, got, want)
		}
	}
}

func TestRecordHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	refRecordHash := func(r Record, fields []int) uint64 {
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		if fields == nil {
			for _, v := range r {
				h = (h*prime ^ refValueHash(v))
			}
			return h
		}
		for _, f := range fields {
			h = (h*prime ^ refValueHash(r.Field(f)))
		}
		return h
	}
	for i := 0; i < 5000; i++ {
		r := make(Record, rng.Intn(6))
		for j := range r {
			r[j] = randomValue(rng)
		}
		var fields []int
		if rng.Intn(3) > 0 {
			fields = make([]int, rng.Intn(4))
			for j := range fields {
				fields[j] = rng.Intn(8) - 1 // includes out-of-range indices
			}
		}
		if got, want := r.Hash(fields), refRecordHash(r, fields); got != want {
			t.Fatalf("Record%v.Hash(%v) = %#x, reference %#x", r, fields, got, want)
		}
	}
}
