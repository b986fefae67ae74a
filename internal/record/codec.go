package record

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// This file implements the engine's wire encoding of records — the byte
// layout that EncodedSize has always priced. One encoding serves both byte
// accounting (network cost simulation) and actual serialization (the spill
// package's on-disk runs and the TCP transport's frames), so a spilled byte
// and a shipped byte are the same unit.
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
	return decodeFrame(dst, buf, count, make([]Value, fields), strBytes), nil
}

// decodeFrame decodes a frame scanFrame has validated into slab, which
// holds exactly its fields, and a fresh arena of its strBytes string bytes.
// The arena is written here and never again, so a string Value may point
// into it as String points into a string's bytes.
func decodeFrame(dst []Record, buf []byte, count int, slab []Value, strBytes int) []Record {
	arena := make([]byte, 0, strBytes)
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
				var p *byte
				if l > 0 {
					arena = append(arena, buf[pos:pos+l]...) // within cap: strBytes sums every l
					p = &arena[len(arena)-l]
				}
				r[f] = Value{kind: KindString, p: p, n: uint64(l)}
				pos += l
			case KindBool:
				r[f] = Value{kind: KindBool, n: uint64(buf[pos])}
				pos++
			default: // Null, written too: the decoder writes every Value of the slab
				r[f] = Value{}
			}
		}
		dst = append(dst, r)
	}
	return dst
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
// records consume exactly. Its records are windows of a slab from the size
// class pool (slab.go), which the batch carries until Batch.TakeSlab; the
// string arena is the frame's own, as with DecodeRecords.
func DecodeBatch(buf []byte, count int) (*Batch, error) {
	fields, strBytes, err := scanFrame(buf, count)
	if err != nil {
		return nil, err
	}
	b := GetBatch()
	slab := getSlab(fields)
	b.recs = decodeFrame(b.recs, buf, count, slab, strBytes)
	b.bytes, b.slab = len(buf), Slab{slab}
	return b, nil
}

// A frame is the unit records are stored and shipped in: an 8-byte header —
// the record count and the payload length, both 4-byte little-endian — and
// then the payload, the records' encodings back to back. A spill run is a
// sequence of frames, and a TCP data frame is one behind its op and target
// (internal/transport), so a spilled byte and a shipped byte are framed
// alike.

// FrameHeaderSize is the bytes of a frame before its payload.
const FrameHeaderSize = 8

// AppendFrame appends the frame of recs to buf and returns the extended
// slice: the header, then exactly the payload's length of encodings.
func AppendFrame(buf []byte, recs []Record) []byte {
	start := len(buf)
	buf = AppendFrameHeader(buf, len(recs), 0) // the length is patched below
	for _, r := range recs {
		buf = r.AppendEncoded(buf)
	}
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(buf)-start-FrameHeaderSize))
	return buf
}

// AppendFrameHeader appends the header of a frame of count records in
// length payload bytes.
func AppendFrameHeader(buf []byte, count, length int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	return binary.LittleEndian.AppendUint32(buf, uint32(length))
}

// ReadFrame reads one frame from r: its header, then its payload, with one
// io.ReadFull each. A header that claims no records or more than maxRecords,
// or an empty payload or one past maxPayload bytes, is an error before the
// payload is read or allocated, and so is a header or payload cut short. The
// frame is read into buf's storage when it fits, so a reader that passes
// each payload back in as the next call's buf reads every frame through one
// buffer; the payload is then valid only until that next call. The payload
// is not decoded (DecodeRecords, DecodeBatch).
func ReadFrame(r io.Reader, buf []byte, maxRecords, maxPayload int) (count int, payload []byte, err error) {
	if cap(buf) < FrameHeaderSize {
		buf = make([]byte, FrameHeaderSize)
	}
	hdr := buf[:FrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("record: truncated frame header: %w", err)
	}
	count = int(binary.LittleEndian.Uint32(hdr))
	length := int(binary.LittleEndian.Uint32(hdr[4:]))
	if count <= 0 || count > maxRecords {
		return 0, nil, fmt.Errorf("record: frame claims %d records (max %d)", count, maxRecords)
	}
	if length <= 0 || length > maxPayload {
		return 0, nil, fmt.Errorf("record: frame claims %d payload bytes (max %d)", length, maxPayload)
	}
	if cap(buf) < length {
		buf = make([]byte, length)
	}
	payload = buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("record: truncated frame payload (%d bytes claimed): %w", length, err)
	}
	return count, payload, nil
}
