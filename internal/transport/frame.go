package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"blackboxflow/internal/record"
)

// The TCP wire format. A shuffle connection carries a stream of frames in
// each direction; a frame is either one record.Batch addressed to a target
// partition or the end-of-stream marker:
//
//	data frame: [op=0][u32 target][record frame]
//	eos frame:  [op=1]
//
// The record frame — [u32 count][u32 payloadLen][payload], the payload the
// batch's record wire encodings — is record.AppendFrame's, the frame a
// spill run is a sequence of: a shipped byte and a spilled byte stay the
// same unit. All integers are little-endian, matching the record codec.
//
// Frames are validated before any allocation sized by them: a length
// prefix beyond maxFramePayload or a record count beyond maxFrameRecords
// is rejected as malformed rather than trusted (the fuzz target
// FuzzReadFrame exercises exactly these paths).

const (
	frameData byte = 0
	frameEOS  byte = 1

	// dataFrameHeaderSize is the bytes of a data frame before the payload:
	// op + target + the record frame's header.
	dataFrameHeaderSize = 1 + 4 + record.FrameHeaderSize

	// maxFrameRecords caps the record count a frame may claim. The engine
	// flushes batches at record.DefaultBatchCap records, so anything past
	// a generous multiple is malformed, not big.
	maxFrameRecords = 1 << 20

	// maxFramePayload caps the payload length a frame may claim (64 MiB),
	// bounding what a corrupt or hostile length prefix can make the
	// decoder allocate.
	maxFramePayload = 1 << 26
)

// frame is one decoded wire frame. For an EOS frame only op is set.
type frame struct {
	op      byte
	target  int
	count   int
	payload []byte
}

// appendDataFrame appends the wire encoding of one batch addressed to
// target and returns the extended buffer.
func appendDataFrame(buf []byte, target int, b *record.Batch) []byte {
	return record.AppendFrame(appendDataPrefix(buf, target), b.Records())
}

// appendDataPrefix appends what a data frame holds before its record
// frame: op and target.
func appendDataPrefix(buf []byte, target int) []byte {
	return binary.LittleEndian.AppendUint32(append(buf, frameData), uint32(target))
}

// readFrame reads and validates one frame from r. Truncation anywhere —
// mid-header or mid-payload — returns an error (io.EOF only when the
// stream ends cleanly between frames), and claimed sizes are bounds-checked
// before the payload is allocated (record.ReadFrame). The frame is read
// into buf's storage when it fits, so a reader that passes each data
// frame's payload back in as the next call's buf reads a whole connection
// through one buffer; the payload is then valid only until that next call.
func readFrame(r io.Reader, buf []byte) (frame, error) {
	if cap(buf) < record.FrameHeaderSize {
		buf = make([]byte, record.FrameHeaderSize)
	}
	op := buf[:1]
	if _, err := io.ReadFull(r, op); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF
		}
		return frame{}, fmt.Errorf("transport: truncated frame op: %w", err)
	}
	switch op[0] {
	case frameEOS:
		return frame{op: frameEOS}, nil
	case frameData:
	default:
		return frame{}, fmt.Errorf("transport: unknown frame op %d", op[0])
	}
	target := buf[:4]
	if _, err := io.ReadFull(r, target); err != nil {
		return frame{}, fmt.Errorf("transport: truncated frame target: %w", err)
	}
	f := frame{op: frameData, target: int(binary.LittleEndian.Uint32(target))}
	var err error
	if f.count, f.payload, err = record.ReadFrame(r, buf, maxFrameRecords, maxFramePayload); err != nil {
		return frame{}, fmt.Errorf("transport: %w", err)
	}
	return f, nil
}

// writeFrame writes a previously read frame back out verbatim — the
// worker's relay step. The header is re-encoded from the parsed fields,
// which round-trips exactly for any frame readFrame accepted, into w's own
// free space, so relaying a frame allocates nothing.
func writeFrame(w *bufio.Writer, f frame) error {
	if f.op == frameEOS {
		return w.WriteByte(frameEOS)
	}
	hdr := record.AppendFrameHeader(appendDataPrefix(w.AvailableBuffer(), f.target), f.count, len(f.payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(f.payload)
	return err
}

// decodeBatch decodes a data frame's payload into a pooled batch and slab:
// exactly f.count records consuming exactly the payload, anything else is
// a malformed frame. The batch shares no storage with the payload, so the
// frame's buffer can take the next frame at once.
func decodeBatch(f frame) (*record.Batch, error) {
	b, err := record.DecodeBatch(f.payload, f.count)
	if err != nil {
		return nil, fmt.Errorf("transport: frame of %d records: %w", f.count, err)
	}
	return b, nil
}
