package record

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// This file implements the engine's wire encoding of records — the byte
// layout that EncodedSize has always priced. One encoding serves both byte
// accounting (network cost simulation) and actual serialization (the spill
// package's on-disk run format), so a spilled byte and a shipped byte are
// the same unit.
//
// Layout: a record is a 4-byte little-endian field count followed by the
// fields; a field is a 1-byte kind tag followed by its payload (int/float:
// 8 bytes; bool: 1 byte, 0 or 1; string: 4-byte length + bytes; null:
// nothing).

// AppendEncoded appends the record's wire encoding to buf and returns the
// extended slice. The number of bytes appended is exactly r.EncodedSize().
func (r Record) AppendEncoded(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.kind))
		switch v.kind {
		case KindInt, KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, v.n)
		case KindString:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.n))
			buf = append(buf, v.str()...)
		case KindBool:
			buf = append(buf, byte(v.n))
		}
	}
	return buf
}

// DecodeRecords decodes a frame — count record encodings back to back, the
// bytes AppendEncoded wrote — and appends the records to dst. The records
// must consume exactly buf: a truncated or malformed field, or bytes left
// over after the last record, is an error, and dst comes back unchanged.
//
// A frame costs two allocations however many records it holds: every
// record is a window of one []Value slab, and every string a window of one
// arena holding exactly the frame's string bytes. So the records share no
// storage with buf, which the caller may reuse at once; a record pins its
// frame's slab, and a string pins its frame's string bytes only. A
// validating pass sizes both before either is allocated, and every field
// costs at least one wire byte, so the slab never holds more Values than
// buf has bytes, whatever count and the field counts claim.
func DecodeRecords(dst []Record, buf []byte, count int) ([]Record, error) {
	fields, strBytes, err := scanFrame(buf, count)
	if err != nil {
		return dst, err
	}
	slab := make([]Value, fields)
	var arena strings.Builder
	arena.Grow(strBytes)
	dst = slices.Grow(dst, count)
	pos, next := 0, 0
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		r := slab[next : next+n : next+n]
		next += n
		for f := range r {
			kind := Kind(buf[pos])
			pos++
			switch kind {
			case KindInt, KindFloat:
				r[f] = Value{kind: kind, n: binary.LittleEndian.Uint64(buf[pos:])}
				pos += 8
			case KindString:
				l := int(binary.LittleEndian.Uint32(buf[pos:]))
				pos += 4
				arena.Write(buf[pos : pos+l])
				r[f] = Value{kind: KindString, n: uint64(l)} // p is set below, once the arena is final
				pos += l
			case KindBool:
				r[f] = Value{kind: KindBool, n: uint64(buf[pos])}
				pos++
			}
		}
		dst = append(dst, r)
	}
	if strBytes > 0 {
		s := arena.String()
		for i := range slab {
			if slab[i].kind == KindString {
				l := int(slab[i].n)
				slab[i] = String(s[:l])
				s = s[l:]
			}
		}
	}
	return dst, nil
}

// scanFrame validates a frame of count records and returns its total field
// count and string bytes. It allocates nothing, so a hostile count or field
// count costs a walk of buf and no more.
func scanFrame(buf []byte, count int) (fields, strBytes int, err error) {
	pos := 0
	for i := 0; i < count; i++ {
		if len(buf)-pos < 4 {
			return 0, 0, fmt.Errorf("record: record %d of %d: truncated header", i, count)
		}
		n := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		for f := 0; f < n; f++ {
			if pos >= len(buf) {
				return 0, 0, fmt.Errorf("record: record %d of %d: truncated field %d of %d", i, count, f, n)
			}
			kind := Kind(buf[pos])
			pos++
			size := 0
			switch kind {
			case KindNull:
			case KindInt, KindFloat:
				size = 8
			case KindString:
				if len(buf)-pos < 4 {
					return 0, 0, fmt.Errorf("record: record %d of %d: truncated string length", i, count)
				}
				size = int(binary.LittleEndian.Uint32(buf[pos:]))
				pos += 4
				strBytes += size
			case KindBool:
				if pos < len(buf) && buf[pos] > 1 {
					return 0, 0, fmt.Errorf("record: record %d of %d: bool byte %d", i, count, buf[pos])
				}
				size = 1
			default:
				return 0, 0, fmt.Errorf("record: record %d of %d: unknown kind tag %d", i, count, kind)
			}
			if len(buf)-pos < size {
				return 0, 0, fmt.Errorf("record: record %d of %d: truncated %s field", i, count, kind)
			}
			pos += size
		}
		fields += n
	}
	if pos != len(buf) {
		return 0, 0, fmt.Errorf("record: %d trailing bytes after %d records", len(buf)-pos, count)
	}
	return fields, strBytes, nil
}

// DecodeBatch decodes a frame of count records (see DecodeRecords) into a
// pooled batch. The batch's byte total is the frame's length, which the
// records consume exactly.
func DecodeBatch(buf []byte, count int) (*Batch, error) {
	b := GetBatch()
	recs, err := DecodeRecords(b.recs, buf, count)
	if err != nil {
		PutBatch(b)
		return nil, err
	}
	b.recs, b.bytes = recs, len(buf)
	return b, nil
}

// AppendEncoded appends the wire encoding of every record in the batch to
// buf and returns the extended slice; the bytes appended equal
// b.EncodedSize(). It is the serialization half the spill package frames
// into its on-disk run format.
func (b *Batch) AppendEncoded(buf []byte) []byte {
	for _, r := range b.recs {
		buf = r.AppendEncoded(buf)
	}
	return buf
}
