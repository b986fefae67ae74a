// Package spill implements the engine's out-of-core building blocks: sorted
// runs of records written to temporary files, streaming run readers, and a
// merge of sorted record cursors into key groups (Groups).
//
// A run is a sequence of record frames (record.AppendFrame: a record count
// and payload length, then the records' wire encodings — the layout
// EncodedSize prices for shuffle byte accounting and a TCP data frame
// carries). Frames hold at most record.DefaultBatchCap records, so a
// reader's resident footprint is one frame regardless of run size.
//
// A File holds consecutive runs of one spill producer (the engine gives each
// partition collector its own File, so writers never contend). Runs are read
// back through ReadAt, which is safe for the concurrent readers a merge
// creates. Files are unlinked on Close; Close is idempotent.
package spill

import (
	"fmt"
	"io"

	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/record"
)

// Run locates one sorted run inside a File.
type Run struct {
	Offset  int64 // byte offset of the run's first frame
	Length  int64 // total bytes including frame headers
	Records int   // records in the run
}

// File is one producer's spill file holding consecutive runs.
type File struct {
	fsys faultfs.FS
	f    faultfs.File
	path string
	off  int64
	buf  []byte // reused frame-encoding buffer
	err  error  // first write error; sticky (see WriteRun)
}

// Create opens a fresh spill file in dir (the OS temp directory when dir is
// empty) on the real filesystem.
func Create(dir string) (*File, error) {
	return CreateIn(faultfs.OS{}, dir)
}

// CreateIn opens a fresh spill file in dir through an injectable filesystem
// — the seam the chaos suites use to fire disk faults at exact operation
// indices (see internal/faultfs).
func CreateIn(fsys faultfs.FS, dir string) (*File, error) {
	f, err := fsys.CreateTemp(dir, "blackboxflow-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &File{fsys: fsys, f: f, path: f.Name()}, nil
}

// Close closes and removes the file — including after a failed WriteRun:
// a torn or doomed spill file must never outlive its File. Idempotent;
// readers opened from the file must not be used afterwards. When a write
// failed earlier, Close surfaces that first error, not the close or unlink
// error that followed from it.
func (s *File) Close() error {
	if s.f == nil {
		return s.err
	}
	err := s.f.Close()
	s.f = nil
	if rmErr := s.fsys.Remove(s.path); err == nil {
		err = rmErr
	}
	if s.err != nil {
		err = s.err
	}
	return err
}

// WriteRun appends one run to the file. The caller must pass records
// already sorted in the run's intended order; WriteRun only frames and
// writes them. The returned Run locates the data for OpenRun.
//
// A write failure is sticky: a frame that failed (or was torn by a short
// write) leaves the file's cursor out of step with s.off, so any later run
// would frame-shift every reader over it. Once a write fails, every
// subsequent WriteRun returns that first error, and Close surfaces it too.
func (s *File) WriteRun(recs []record.Record) (Run, error) {
	if s.err != nil {
		return Run{}, s.err
	}
	run := Run{Offset: s.off, Records: len(recs)}
	for start := 0; start < len(recs); start += record.DefaultBatchCap {
		s.buf = record.AppendFrame(s.buf[:0], recs[start:min(start+record.DefaultBatchCap, len(recs))])
		n, err := s.f.Write(s.buf)
		if err == nil && n < len(s.buf) {
			err = io.ErrShortWrite
		}
		if err != nil {
			s.err = fmt.Errorf("spill: write run: %w", err)
			return Run{}, s.err
		}
		s.off += int64(len(s.buf))
	}
	run.Length = s.off - run.Offset
	return run, nil
}

// OpenRun returns a streaming reader over one run. Multiple runs of the
// same File may be read concurrently.
func (s *File) OpenRun(r Run) *RunReader {
	return &RunReader{sec: *io.NewSectionReader(s.f, r.Offset, r.Length)}
}

// RunReader iterates a run's records in order, decoding one frame at a time:
// at most one frame's bytes are resident, and each frame's records share one
// Value slab and one string arena (record.DecodeRecords).
type RunReader struct {
	sec  io.SectionReader // the run's bytes; its offset is the next unread frame's
	buf  []byte           // the current frame's header, then payload (reused across frames)
	recs []record.Record  // the current frame's records (reused across frames)
	next int              // next record in recs
}

// Next returns the run's next record. The second result is false when the
// run is exhausted. A frame is read with one ReadAt for its header and one
// for its payload, which may not claim more than the run has left, so no
// read passes the run's end; a frame whose records do not consume exactly
// its payload is an error, as on the TCP path.
func (rr *RunReader) Next() (record.Record, bool, error) {
	for rr.next == len(rr.recs) {
		off, _ := rr.sec.Seek(0, io.SeekCurrent)
		if off >= rr.sec.Size() {
			return nil, false, nil
		}
		rest := int(rr.sec.Size() - off - record.FrameHeaderSize)
		count, payload, err := record.ReadFrame(&rr.sec, rr.buf, record.DefaultBatchCap, rest)
		var recs []record.Record
		if err == nil {
			recs, err = record.DecodeRecords(rr.recs[:0], payload, count)
		}
		if err != nil {
			_, base, _ := rr.sec.Outer()
			return nil, false, fmt.Errorf("spill: frame at offset %d of the run at %d: %w", off, base, err)
		}
		rr.buf, rr.recs, rr.next = payload, recs, 0
	}
	r := rr.recs[rr.next]
	rr.next++
	return r, true, nil
}
