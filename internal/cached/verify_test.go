package cached

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"convexcache/internal/fault"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// TestVerifyTimeout pins that Verify honors an already-cancelled context
// with a recognizable error in both modes, at every shard count, and also
// when each shard's log is shorter than the replay engine's polling cadence.
func TestVerifyTimeout(t *testing.T) {
	for _, mode := range []string{"classic", "partition"} {
		for _, shards := range []int{1, 2, 4} {
			for _, n := range []int{2_000, 20_000} {
				t.Run(fmt.Sprintf("%s/shards=%d/requests=%d", mode, shards, n), func(t *testing.T) {
					var svc *Service
					if mode == "partition" {
						svc = newPartitionService(t, 64, shards, 2, nil, nil, 0)
					} else {
						svc = newTestService(t, 64, shards, 2)
					}
					applyAll(t, svc, genRequests(2, 2, 200, n), 1024)
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := svc.Verify(ctx); !errors.Is(err, context.Canceled) {
						t.Fatalf("verify with canceled context: %v", err)
					}
				})
			}
		}
	}
}

// closedWALService drives a 2-shard classic service with a WAL of 4 KiB
// segments, then closes it. Small batches keep segment rotation frequent,
// and extra batches run until every shard also holds at least two tail
// entries in memory, so Verify reads both of its sources on each shard.
func closedWALService(t *testing.T) *Service {
	t.Helper()
	svc := newWALService(t, Config{K: 64, Shards: 2, Tenants: 3, NewPolicy: testPolicy, WAL: testWAL(t.TempDir())})
	reqs := genRequests(5, 3, 300, 20_000)
	applyAll(t, svc, reqs[:6000], 32)
	for lo := 6000; ; lo += 8 {
		ok := true
		for _, sh := range svc.Stats().Shards {
			ok = ok && sh.LogStart > 0 && sh.LogLen >= 2
		}
		if ok {
			break
		}
		if lo+8 > len(reqs) {
			t.Fatal("no shard tail of two entries after the whole workload")
		}
		applyAll(t, svc, reqs[lo:lo+8], 8)
	}
	svc.Close()
	requireClean(t, svc)
	return svc
}

// TestVerifyReportsDivergence pins that Verify catches what it claims to: a
// live counter that disagrees with the log is a diff naming exactly that
// tenant's counters. A log that breaks the shard's invariants is an error
// instead (TestLogCorruptionRefused).
func TestVerifyReportsDivergence(t *testing.T) {
	svc := closedWALService(t)

	t.Run("counter", func(t *testing.T) {
		// One hit recorded as a miss: requests are conserved, so exactly the
		// tenant's hit and miss counters differ.
		sh := svc.shards[1]
		sh.hits[2]--
		sh.misses[2]++
		defer func() { sh.hits[2]++; sh.misses[2]-- }()
		rep, err := svc.Verify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean || len(rep.Diffs) != 2 ||
			!strings.HasPrefix(rep.Diffs[0], "tenant 2: hits ") || !strings.HasPrefix(rep.Diffs[1], "tenant 2: misses ") {
			t.Fatalf("clean=%v diffs=%q, want tenant 2's hit and miss diffs only", rep.Clean, rep.Diffs)
		}
	})
}

// p builds one frame payload: kind, then each int as a uvarint and each
// string as raw bytes.
func p(kind byte, fields ...any) []byte {
	out := []byte{kind}
	for _, f := range fields {
		switch f := f.(type) {
		case int:
			out = binary.AppendUvarint(out, uint64(f))
		case uint64:
			out = binary.AppendUvarint(out, f)
		case string:
			out = append(out, f...)
		}
	}
	return out
}

// corruptionConfig is the service the corruption table runs: two shards,
// three tenants, K=9, classic or partition mode.
func corruptionConfig(partition bool, wal *WALConfig) Config {
	cfg := Config{K: 9, Shards: 2, Tenants: 3, WAL: wal}
	if partition {
		cfg.Quotas = []int{3, 3, 3}
	} else {
		cfg.NewPolicy = testPolicy
	}
	return cfg
}

// TestLogCorruptionRefused feeds every corruption the log format can
// express — each behind a valid CRC unless named crc — to the four places a
// shard's log is read: recovery from a sealed segment and from the final
// one, and Verify from a sealed segment and from the in-memory tail. Each
// must refuse it with an error naming the shard, never panic; only a
// CRC-invalid final frame may be truncated instead. The corrupt log is
// shard 1's; it opens with a valid header and a batch introducing two
// pages, so the slots, seqs and keys below have a history to contradict.
// Shard 0's directory is empty, so a refused recovery must also close the
// fresh segment shard 0 opened.
func TestLogCorruptionRefused(t *testing.T) {
	// fixture returns a closed service of corruptionConfig that verifies
	// clean; with a WAL (4 KiB segments) shard 1 has sealed segments.
	fixtures := map[[2]bool]*Service{}
	root := t.TempDir()
	fixture := func(t *testing.T, partition, wal bool) *Service {
		t.Helper()
		key := [2]bool{partition, wal}
		if svc := fixtures[key]; svc != nil {
			return svc
		}
		var w *WALConfig
		if wal {
			w = &WALConfig{Dir: filepath.Join(root, fmt.Sprint(partition)), Fsync: FsyncOff, SegmentBytes: 4096}
		}
		svc, err := New(corruptionConfig(partition, w))
		if err != nil {
			t.Fatal(err)
		}
		applyAll(t, svc, genRequests(7, 3, 300, 20_000), 64)
		svc.Close()
		if wal && svc.Stats().Shards[1].Seg == 0 {
			t.Fatal("shard 1 never rotated a segment")
		}
		requireClean(t, svc)
		fixtures[key] = svc
		return svc
	}
	header := p('H', walVersion, 1, 2, 0)
	pages := p('B', 1, 2, 0, 0, 1, "a", 1, 1, 1, "b")
	for _, tc := range []struct {
		name      string
		partition bool
		frames    [][]byte // the log: header, then pages, unless replaced
		want      string
		// recoveryOnly marks a corruption only key interning can see:
		// Verify replays slots and never interns keys.
		recoveryOnly bool
	}{
		{name: "version", frames: [][]byte{p('H', 1, 1, 2, 0), pages}, want: "wal format version 1"},
		{name: "shard", frames: [][]byte{p('H', walVersion, 0, 2, 0), pages}, want: "written by shard 0 of 2"},
		{name: "shard-count", frames: [][]byte{p('H', walVersion, 1, 3, 0), pages}, want: "written by shard 1 of 3"},
		{name: "start-entry", frames: [][]byte{p('H', walVersion, 1, 2, 5), pages}, want: "starts at entry 5"},
		{name: "header-bytes", frames: [][]byte{p('H', walVersion, 1, 2, 0, "x"), pages}, want: "malformed header"},
		{name: "no-header", frames: [][]byte{pages}, want: "not a header"},
		{name: "duplicate-header", frames: [][]byte{header, pages, p('H', walVersion, 1, 2, 2)}, want: "duplicate header"},
		{name: "unknown-kind", frames: [][]byte{header, pages, p('Z', 3)}, want: "unknown frame kind"},
		{name: "empty-frame", frames: [][]byte{header, pages, {}}, want: "empty frame"},
		{name: "seq", frames: [][]byte{header, pages, p('B', 2, 1, 0)}, want: "seq 2 not increasing"},
		{name: "seq-range", frames: [][]byte{header, pages, p('B', uint64(math.MaxInt64), 2, 0, 1)}, want: "out of range"},
		{name: "count-zero", frames: [][]byte{header, pages, p('B', 3, 0)}, want: "batch of 0 entries"},
		{name: "count-past-payload", frames: [][]byte{header, pages, p('B', 3, 5, 0)}, want: "batch of 5 entries in 1 bytes"},
		{name: "truncated-entry", frames: [][]byte{header, pages, p('B', 3, 2, 0, "\x80")}, want: "batch entry 1 truncated"},
		{name: "trailing-bytes", frames: [][]byte{header, pages, p('B', 3, 1, 0, 0)}, want: "1 bytes after the batch"},
		{name: "slot", frames: [][]byte{header, pages, p('B', 3, 1, 3)}, want: "slot 3 past the 2 pages"},
		{name: "tenant", frames: [][]byte{header, pages, p('B', 3, 1, 2, 3, 1, "c")}, want: "has tenant 3"},
		{name: "tenant-negative", frames: [][]byte{header, pages, p('B', 3, 1, 2, uint64(math.MaxUint64), 1, "c")}, want: "has tenant 18446744073709551615"},
		{name: "slot-huge", frames: [][]byte{header, pages, p('B', 3, 1, 1<<40)}, want: "slot 1099511627776 past the 2 pages"},
		{name: "key-empty", frames: [][]byte{header, pages, p('B', 3, 1, 2, 0, 0)}, want: "a 0-byte key"},
		{name: "key-long", frames: [][]byte{header, pages, p('B', 3, 1, 2, 0, MaxKeyLen+1, strings.Repeat("k", MaxKeyLen+1))}, want: "a 257-byte key"},
		{name: "key-past-payload", frames: [][]byte{header, pages, p('B', 3, 1, 2, 0, 5, "ab")}, want: "a 5-byte key"},
		{name: "quota-classic", frames: [][]byte{header, pages, p('Q', 3, 3, 3, 3, 3)}, want: "outside partition mode"},
		{name: "quota-length", partition: true, frames: [][]byte{header, pages, p('Q', 3, 2, 4, 5)}, want: "quota vector of 2 tenants"},
		{name: "quota-sum", partition: true, frames: [][]byte{header, pages, p('Q', 3, 3, 1, 1, 1)}, want: "does not sum to K=9"},
		{name: "quota-bytes", partition: true, frames: [][]byte{header, pages, p('Q', 3, 3, 3, 3, 3, 0)}, want: "does not sum to K=9"},
		{name: "duplicate-key", frames: [][]byte{header, pages, p('B', 3, 1, 2, 0, 1, "a")}, want: `key "a" of tenant 0 first appears twice`, recoveryOnly: true},
		// A whole batch frame whose CRC no longer matches its payload: torn
		// in a segment, truncated only in the final one.
		{name: "crc", frames: [][]byte{header, pages}},
	} {
		seg := frameSegment(tc.frames)
		if tc.name == "crc" {
			seg = appendFrame(seg, p('B', 3, 1, 0))
			seg[len(seg)-1] ^= 0x01
		}
		t.Run(tc.name, func(t *testing.T) {
			refused := func(t *testing.T, err error, crcWant string) {
				t.Helper()
				want := tc.want
				if tc.name == "crc" {
					want = crcWant
				}
				if err == nil || errors.Is(err, errReplayPanic) || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), want) {
					t.Fatalf("error = %v, want shard 1 and %q", err, want)
				}
			}
			for _, final := range []bool{false, true} {
				name := "recover-sealed"
				if final {
					name = "recover-final"
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					shardDir := filepath.Join(dir, "shard-001")
					if err := os.MkdirAll(shardDir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(shardDir, segName(0)), seg, 0o644); err != nil {
						t.Fatal(err)
					}
					if !final {
						next := appendFrame(nil, p('H', walVersion, 1, 2, 2))
						if err := os.WriteFile(filepath.Join(shardDir, segName(1)), next, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					fs := &openFiles{FS: fault.OSFS}
					svc, err := noPanic(t, func() (*Service, error) {
						return New(corruptionConfig(tc.partition, &WALConfig{Dir: dir, Fsync: FsyncOff, Recover: true, FS: fs}))
					})
					if tc.name == "crc" && final {
						// A torn final frame drops its whole batch.
						if err != nil {
							t.Fatalf("recovery refused a torn final frame: %v", err)
						}
						defer svc.Close()
						if rep := svc.Recovery(); rep.Truncations != 1 || rep.Requests != 2 {
							t.Fatalf("recovery report %+v, want one truncation and two requests", rep)
						}
						requireClean(t, svc)
						return
					}
					if err == nil {
						svc.Close()
					}
					refused(t, err, "sealed segment 0 has a torn tail")
					if n := fs.open.Load(); n != 0 {
						t.Fatalf("refused recovery left %d segment files open", n)
					}
				})
			}
			if tc.recoveryOnly {
				return
			}
			t.Run("verify-sealed", func(t *testing.T) {
				svc := fixture(t, tc.partition, true)
				seg0 := filepath.Join(shardDirName(svc.walCfg.Dir, 1), segName(0))
				orig, err := os.ReadFile(seg0)
				if err != nil {
					t.Fatal(err)
				}
				defer os.WriteFile(seg0, orig, 0o644)
				if err := os.WriteFile(seg0, seg, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err = noPanic(t, func() (*VerifyReport, error) { return svc.Verify(context.Background()) })
				refused(t, err, "sealed segment 0 has a torn tail")
			})
			t.Run("verify-tail", func(t *testing.T) {
				svc := fixture(t, tc.partition, false)
				sh := svc.shards[1]
				orig := sh.log.chunks
				defer func() { sh.log.chunks = orig }()
				sh.log.chunks = [][]byte{seg}
				_, err := noPanic(t, func() (*VerifyReport, error) { return svc.Verify(context.Background()) })
				refused(t, err, "CRC mismatch")
			})
		})
	}
}

// openFiles is an FS that counts the files it has open for appending.
type openFiles struct {
	fault.FS
	open atomic.Int64
}

func (o *openFiles) Append(name string) (fault.File, error) {
	f, err := o.FS.Append(name)
	if err != nil {
		return nil, err
	}
	o.open.Add(1)
	return &openFile{File: f, o: o}, nil
}

type openFile struct {
	fault.File
	o *openFiles
}

func (f *openFile) Close() error {
	f.o.open.Add(-1)
	return f.File.Close()
}

// noPanic runs f and turns a panic into a test failure.
func noPanic[T any](t *testing.T, f func() (T, error)) (v T, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panicked: %v", p)
		}
	}()
	return f()
}

// panicOnInsert is LRU whose OnInsert panics: a replay engine that breaks.
type panicOnInsert struct{ sim.Policy }

func (panicOnInsert) OnInsert(int, trace.Request) { panic("replay engine broke") }

// TestVerifyReplayPanicIsAnError pins that a panic inside a shard's replay,
// which runs on its own goroutine, comes back from Verify as an error
// naming the shard instead of crashing the process.
func TestVerifyReplayPanicIsAnError(t *testing.T) {
	var broken atomic.Bool
	svc, err := New(Config{K: 16, Tenants: 2, NewPolicy: func() sim.Policy {
		if broken.Load() {
			return panicOnInsert{policy.NewLRU()}
		}
		return policy.NewLRU()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	applyAll(t, svc, genRequests(3, 2, 50, 500), 64)
	requireClean(t, svc)
	broken.Store(true)
	if _, err := svc.Verify(context.Background()); err == nil || !strings.Contains(err.Error(), "shard 0: replay panicked") {
		t.Fatalf("verify with a panicking replay engine: %v", err)
	}
}

// TestRecoverReplayPanicIsAnError pins that a panic inside a shard's
// recovery replay, which runs on its own goroutine, comes back from New as
// an error naming the shard and wrapping errReplayPanic — the mark the
// recovery fuzz targets fail on.
func TestRecoverReplayPanicIsAnError(t *testing.T) {
	cfg := Config{K: 16, Tenants: 2, NewPolicy: func() sim.Policy { return policy.NewLRU() },
		WAL: &WALConfig{Dir: t.TempDir(), Fsync: FsyncOff}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, svc, genRequests(3, 2, 50, 500), 64)
	svc.Close()
	cfg.NewPolicy = func() sim.Policy { return panicOnInsert{policy.NewLRU()} }
	cfg.WAL = &WALConfig{Dir: cfg.WAL.Dir, Fsync: FsyncOff, Recover: true}
	if _, err := New(cfg); !errors.Is(err, errReplayPanic) || !strings.Contains(err.Error(), "shard 0: replay panicked") {
		t.Fatalf("recovery with a panicking replay engine: %v", err)
	}
}
