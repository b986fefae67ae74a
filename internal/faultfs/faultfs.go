// Package faultfs is the filesystem seam under the engine's out-of-core
// machinery: everything that creates, writes, reads, or removes spill state
// (internal/spill run files, the engine's spill collectors, the per-job
// spill directories of internal/jobs) goes through the FS interface instead
// of calling the os package directly. Production code runs on the OS
// passthrough; test harnesses install an Injector, which is the same
// filesystem plus one deterministic fault — disk full, a short write, a
// read error, or latency — fired at a chosen operation index.
//
// The design is simulation-first in the FoundationDB tradition: a fault
// schedule is a pure function of (operation index, fault kind), so a
// failing chaos run is replayed exactly by re-running the same schedule.
// An Injector fires its fault exactly once and then behaves like the clean
// filesystem forever after, which is what lets the chaos suites assert the
// single-fault invariants — the run reaches a terminal error, nothing
// leaks, and the same engine or scheduler pool immediately afterwards runs
// fault-free and byte-identical to an unfaulted baseline.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// FS is the filesystem surface the spill and job layers need: temp-file and
// temp-dir creation plus removal. Files returned by CreateTemp carry the
// read/write surface (File).
type FS interface {
	// CreateTemp creates a new temporary file in dir (OS temp dir when
	// empty), opened for reading and writing, as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// MkdirTemp creates a new temporary directory in dir, as os.MkdirTemp.
	MkdirTemp(dir, pattern string) (string, error)
	// Remove removes the named file.
	Remove(name string) error
	// RemoveAll removes path and everything under it.
	RemoveAll(path string) error
}

// File is the slice of *os.File the spill format uses: sequential writes,
// concurrent positioned reads (a group merge opens many readers over one
// file), close, and the path for unlinking.
type File interface {
	Name() string
	Write(p []byte) (n int, err error)
	ReadAt(p []byte, off int64) (n int, err error)
	Close() error
}

// OS is the passthrough FS backed by the real filesystem.
type OS struct{}

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OS) MkdirTemp(dir, pattern string) (string, error) {
	return os.MkdirTemp(dir, pattern)
}
func (OS) Remove(name string) error    { return os.Remove(name) }
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// ENOSPC fails the operation with syscall.ENOSPC — the disk-full error
	// a spill write or temp-file creation sees on a real machine. Applies
	// to CreateTemp, MkdirTemp, and Write.
	ENOSPC Kind = iota
	// ShortWrite persists only a prefix of the buffer and returns
	// io.ErrShortWrite — a write torn by a filled quota or a killed NFS
	// server. Applies to Write.
	ShortWrite
	// ReadErr fails the read with ErrInjectedRead — a bad sector or a file
	// truncated behind the reader's back. Applies to ReadAt.
	ReadErr
	// Latency stalls the operation (Injector.Delay, default 2ms) and then
	// lets it proceed normally. Applies to every operation; the only kind
	// that must not surface an error.
	Latency
	nKinds
)

func (k Kind) String() string {
	switch k {
	case ENOSPC:
		return "enospc"
	case ShortWrite:
		return "shortwrite"
	case ReadErr:
		return "readerr"
	case Latency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjectedRead is the error a ReadErr fault returns.
var ErrInjectedRead = errors.New("faultfs: injected read error")

// IsInjected reports whether err is (or wraps) one of the injector's fault
// errors — the check chaos suites use to tell an injected failure from an
// unrelated one.
func IsInjected(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, io.ErrShortWrite) ||
		errors.Is(err, ErrInjectedRead)
}

// opClass is the operation taxonomy fault applicability is decided over.
type opClass uint8

const (
	opCreate opClass = iota
	opMkdir
	opWrite
	opRead
	opRemove
	opClose
)

// applies reports whether a fault kind can fire on an operation class.
func (k Kind) applies(c opClass) bool {
	switch k {
	case ENOSPC:
		return c == opCreate || c == opMkdir || c == opWrite
	case ShortWrite:
		return c == opWrite
	case ReadErr:
		return c == opRead
	case Latency:
		return true
	}
	return false
}

// Injector wraps an FS and fires one deterministic fault: the first
// operation whose index (1-based, counted across every FS and File call) is
// >= At and whose class the fault kind applies to. The fault fires exactly
// once; afterwards the Injector is a plain passthrough, so the same engine
// or pool can be exercised fault-free without swapping filesystems. An At
// of zero (or negative) never fires — a counting-only injector, used to
// measure how many fault points a workload exposes. All methods are safe
// for concurrent use.
type Injector struct {
	fs    FS
	At    int64 // 1-based operation index the fault arms at; <=0 disables
	Kind  Kind
	Delay time.Duration // stall injected by Latency; default 2ms

	ops   atomic.Int64
	fired atomic.Bool
}

// NewInjector returns an Injector over fs firing kind at operation index at.
func NewInjector(fs FS, at int64, kind Kind) *Injector {
	return &Injector{fs: fs, At: at, Kind: kind}
}

// Seeded derives a single-fault schedule from seed: a fault kind and an
// operation index in [1, maxOps], both pure functions of the seed — the
// same seed always yields the same schedule.
func Seeded(fs FS, seed, maxOps int64) *Injector {
	if maxOps < 1 {
		maxOps = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return NewInjector(fs, 1+rng.Int63n(maxOps), Kind(rng.Intn(int(nKinds))))
}

// Ops returns how many filesystem operations the injector has observed.
func (in *Injector) Ops() int64 { return in.ops.Load() }

// Fired reports whether the scheduled fault has been injected.
func (in *Injector) Fired() bool { return in.fired.Load() }

// step counts one operation and reports whether the fault fires on it.
func (in *Injector) step(c opClass) bool {
	n := in.ops.Add(1)
	if in.At <= 0 || n < in.At || !in.Kind.applies(c) {
		return false
	}
	// Exactly-once across concurrent spill collectors.
	return in.fired.CompareAndSwap(false, true)
}

// stall sleeps the configured latency (Latency faults only).
func (in *Injector) stall() {
	d := in.Delay
	if d <= 0 {
		d = 2 * time.Millisecond
	}
	time.Sleep(d)
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if in.step(opCreate) {
		if in.Kind == Latency {
			in.stall()
		} else {
			return nil, &os.PathError{Op: "createtemp", Path: dir, Err: syscall.ENOSPC}
		}
	}
	f, err := in.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, in: in}, nil
}

func (in *Injector) MkdirTemp(dir, pattern string) (string, error) {
	if in.step(opMkdir) {
		if in.Kind == Latency {
			in.stall()
		} else {
			return "", &os.PathError{Op: "mkdirtemp", Path: dir, Err: syscall.ENOSPC}
		}
	}
	return in.fs.MkdirTemp(dir, pattern)
}

func (in *Injector) Remove(name string) error {
	if in.step(opRemove) {
		in.stall()
	}
	return in.fs.Remove(name)
}

func (in *Injector) RemoveAll(path string) error {
	if in.step(opRemove) {
		in.stall()
	}
	return in.fs.RemoveAll(path)
}

// injFile threads a file's operations back through its Injector's schedule.
type injFile struct {
	f  File
	in *Injector
}

func (jf *injFile) Name() string { return jf.f.Name() }

func (jf *injFile) Write(p []byte) (int, error) {
	if jf.in.step(opWrite) {
		switch jf.in.Kind {
		case Latency:
			jf.in.stall()
		case ShortWrite:
			// Persist a prefix so the file really is torn mid-frame, then
			// report the short write as io.Writer requires.
			n, err := jf.f.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, io.ErrShortWrite
		default:
			return 0, &os.PathError{Op: "write", Path: jf.f.Name(), Err: syscall.ENOSPC}
		}
	}
	return jf.f.Write(p)
}

func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	if jf.in.step(opRead) {
		if jf.in.Kind == Latency {
			jf.in.stall()
		} else {
			return 0, fmt.Errorf("faultfs: read %s at %d: %w", jf.f.Name(), off, ErrInjectedRead)
		}
	}
	return jf.f.ReadAt(p, off)
}

func (jf *injFile) Close() error {
	if jf.in.step(opClose) {
		jf.in.stall()
	}
	return jf.f.Close()
}
