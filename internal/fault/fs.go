package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"convexcache/internal/obs"
)

// This file is the storage side of the fault package: a minimal filesystem
// interface the WAL of internal/cached writes through, an os-backed default,
// and a seeded deterministic fault-injecting wrapper (write errors, short
// "torn" writes, fsync failures and a hard crash after the N-th write) so
// crash-recovery code can be exercised against byte-precise storage failures
// that replay identically for a given seed.

// File is one append-target the WAL writes. Writes go to the current end of
// the file (implementations open with O_APPEND); Truncate discards a torn
// tail during recovery.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	io.Closer
}

// FS is the slice of filesystem the WAL needs. All paths are plain strings
// relative to whatever root the caller chose; implementations must be safe
// for concurrent use from multiple shards (each shard touches only its own
// files, but directory listing can race with creation elsewhere).
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
}

// OSFS is the passthrough FS over the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ErrCrashed is returned by every FaultFS operation after the configured
// crash point: the process is pretending its disk went away mid-write.
var ErrCrashed = errors.New("fault: storage crashed")

// FSConfig describes the storage fault mix. Probabilities are per write (or
// per sync for SyncErrProb); zero disables that fault.
type FSConfig struct {
	// Seed seeds the decision PRNG; the zero seed is replaced by 1.
	Seed int64
	// WriteErrProb is the probability a Write fails outright (no bytes
	// reach the file).
	WriteErrProb float64
	// ShortWriteProb is the probability a Write is torn: only a seeded
	// prefix of the buffer reaches the file and the call reports an error.
	ShortWriteProb float64
	// SyncErrProb is the probability a Sync fails.
	SyncErrProb float64
	// CrashAtWrite, when > 0, makes the N-th Write (1-based, counted across
	// all files) torn — a seeded prefix lands — and every operation after it
	// fail with ErrCrashed. This is the deterministic kill-9-mid-write.
	CrashAtWrite int64
}

// Enabled reports whether any storage fault can fire.
func (c FSConfig) Enabled() bool {
	return c.WriteErrProb > 0 || c.ShortWriteProb > 0 || c.SyncErrProb > 0 || c.CrashAtWrite > 0
}

// ParseFSSpec parses a comma-separated storage-fault spec, e.g.
//
//	"seed=7,write_err_p=0.01,short_p=0.01,sync_err_p=0.05,crash_at=4096"
//
// Unknown keys are an error so typos cannot silently disable a chaos run.
func ParseFSSpec(spec string) (FSConfig, error) {
	var cfg FSConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return FSConfig{}, fmt.Errorf("fault: malformed fs spec entry %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "write_err_p":
			cfg.WriteErrProb, err = parseProb(v)
		case "short_p":
			cfg.ShortWriteProb, err = parseProb(v)
		case "sync_err_p":
			cfg.SyncErrProb, err = parseProb(v)
		case "crash_at":
			cfg.CrashAtWrite, err = strconv.ParseInt(v, 10, 64)
		default:
			return FSConfig{}, fmt.Errorf("fault: unknown fs spec key %q", k)
		}
		if err != nil {
			return FSConfig{}, fmt.Errorf("fault: fs spec entry %q: %w", part, err)
		}
	}
	return cfg, nil
}

// FaultFS wraps an inner FS with seeded deterministic storage faults. All
// fault decisions flow from one PRNG behind a mutex, in operation-arrival
// order: a given seed produces the same fault sequence for the same sequence
// of writes, which is what makes storage chaos tests replayable. Reads and
// directory operations pass through unfaulted (the WAL's correctness burden
// is on the write path; recovery must work no matter what the reader finds).
type FaultFS struct {
	inner FS
	cfg   FSConfig

	mu      sync.Mutex
	rng     *rand.Rand
	writes  int64
	crashed bool

	writeErrC, shortC, syncErrC, crashC *obs.Counter
}

// NewFS wraps inner with the fault mix; reg may be nil to disable metrics.
func NewFS(inner FS, cfg FSConfig, reg *obs.Registry) *FaultFS {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	f := &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if reg != nil {
		f.writeErrC = reg.Counter(`fault_fs_injected_total{kind="write_error"}`)
		f.shortC = reg.Counter(`fault_fs_injected_total{kind="short_write"}`)
		f.syncErrC = reg.Counter(`fault_fs_injected_total{kind="sync_error"}`)
		f.crashC = reg.Counter(`fault_fs_injected_total{kind="crash"}`)
	}
	return f
}

// Crashed reports whether the crash point has been reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// writeDecision is the outcome of one write's fault draw.
type writeDecision struct {
	err   bool
	short bool
	// frac in [0,1) picks the torn-write prefix length.
	frac float64
}

// drawWrite consumes exactly three uniforms per write so the decision
// sequence for a seed is stable as probabilities are tuned, mirroring
// Injector.draw.
func (f *FaultFS) drawWrite() (writeDecision, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return writeDecision{}, ErrCrashed
	}
	u1, u2, u3 := f.rng.Float64(), f.rng.Float64(), f.rng.Float64()
	f.writes++
	if f.cfg.CrashAtWrite > 0 && f.writes >= f.cfg.CrashAtWrite {
		f.crashed = true
		if f.crashC != nil {
			f.crashC.Inc()
		}
		return writeDecision{short: true, frac: u3}, nil
	}
	var d writeDecision
	if u1 < f.cfg.WriteErrProb {
		d.err = true
	} else if u2 < f.cfg.ShortWriteProb {
		d.short = true
		d.frac = u3
	}
	return d, nil
}

func (f *FaultFS) drawSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.rng.Float64() < f.cfg.SyncErrProb {
		if f.syncErrC != nil {
			f.syncErrC.Inc()
		}
		return errors.New("fault: injected fsync failure")
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *FaultFS) Append(name string) (File, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	inner, err := f.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, name: name}, nil
}

func (f *FaultFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// faultFile interposes the write-path faults on one file handle.
type faultFile struct {
	fs    *FaultFS
	inner File
	name  string
}

func (w *faultFile) Write(p []byte) (int, error) {
	d, err := w.fs.drawWrite()
	if err != nil {
		return 0, err
	}
	if d.err {
		if w.fs.writeErrC != nil {
			w.fs.writeErrC.Inc()
		}
		return 0, fmt.Errorf("fault: injected write error on %s", filepath.Base(w.name))
	}
	if d.short {
		n := int(d.frac * float64(len(p)))
		if n >= len(p) && len(p) > 0 {
			n = len(p) - 1
		}
		wrote, werr := w.inner.Write(p[:n])
		if w.fs.shortC != nil {
			w.fs.shortC.Inc()
		}
		if werr != nil {
			return wrote, werr
		}
		return wrote, fmt.Errorf("fault: injected short write on %s (%d of %d bytes)", filepath.Base(w.name), wrote, len(p))
	}
	return w.inner.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.drawSync(); err != nil {
		return err
	}
	return w.inner.Sync()
}

func (w *faultFile) Truncate(size int64) error {
	if w.fs.Crashed() {
		return ErrCrashed
	}
	return w.inner.Truncate(size)
}

func (w *faultFile) Close() error { return w.inner.Close() }
