package record

import (
	"encoding/binary"
	"fmt"
)

// This file implements the engine's wire encoding of records — the byte
// layout that EncodedSize has always priced. One encoding serves both byte
// accounting (network cost simulation) and actual serialization (the spill
// package's on-disk run format), so a spilled byte and a shipped byte are
// the same unit.
//
// Layout: a record is a 4-byte little-endian field count followed by the
// fields; a field is a 1-byte kind tag followed by its payload (int/float:
// 8 bytes; bool: 1 byte; string: 4-byte length + bytes; null: nothing).

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

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed. String payloads are copied, so
// the returned record does not alias buf.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("record: truncated header (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	pos := 4
	r := make(Record, n)
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("record: truncated field %d of %d", i, n)
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
			// zero Value
		case KindInt, KindFloat:
			if pos+8 > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated %s field", kind)
			}
			r[i] = Value{kind: kind, n: binary.LittleEndian.Uint64(buf[pos:])}
			pos += 8
		case KindString:
			if pos+4 > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated string length")
			}
			l := int(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
			if pos+l > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated string payload (%d bytes)", l)
			}
			r[i] = String(string(buf[pos : pos+l]))
			pos += l
		case KindBool:
			if pos >= len(buf) {
				return nil, 0, fmt.Errorf("record: truncated bool field")
			}
			r[i] = Bool(buf[pos] != 0)
			pos++
		default:
			return nil, 0, fmt.Errorf("record: unknown kind tag %d", kind)
		}
	}
	return r, pos, nil
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
