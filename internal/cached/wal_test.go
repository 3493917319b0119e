package cached

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"convexcache/internal/fault"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// testWAL returns a WALConfig aimed at dir with small segments so rotation
// and multi-segment recovery are exercised by modest workloads.
func testWAL(dir string) *WALConfig {
	return &WALConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 4096}
}

func newWALService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// normalizeStats zeroes the WAL-layout fields (segment index, sealed/tail
// split) that depend on varint-encoded byte counts: global sequence numbers
// interleave nondeterministically across shards, so two equivalent runs can
// rotate at slightly different entries while agreeing on every counter.
func normalizeStats(st Stats) Stats {
	for i := range st.Shards {
		st.Shards[i].Seg, st.Shards[i].LogStart, st.Shards[i].LogLen = 0, 0, 0
	}
	return st
}

func requireClean(t *testing.T, svc *Service) {
	t.Helper()
	rep, err := svc.Verify(context.Background())
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("verify diffs: %v", rep.Diffs)
	}
}

// logEntry is one entry a logReader handed its visitor.
type logEntry struct {
	seq    int64
	slot   int
	tenant trace.Tenant
	key    string
	quotas []int
}

// collect is a logVisitor that records every entry, a first appearance's
// key on the request that introduced the page.
type collect struct {
	entries []logEntry
	keys    map[int]string // keys whose request is still to come
}

func (c *collect) page(slot int, _ trace.Tenant, key []byte) error {
	if c.keys == nil {
		c.keys = map[int]string{}
	}
	c.keys[slot] = string(key)
	return nil
}

func (c *collect) requests(seq int64, slots []int32, owners []trace.Tenant) error {
	for j, slot := range slots {
		key := c.keys[int(slot)]
		delete(c.keys, int(slot))
		c.entries = append(c.entries, logEntry{seq: seq + int64(j), slot: int(slot), tenant: owners[slot], key: key})
	}
	return nil
}

func (c *collect) quotas(seq int64, q []int) error {
	c.entries = append(c.entries, logEntry{seq: seq, slot: -1, tenant: -1, quotas: append([]int(nil), q...)})
	return nil
}

// testReader is a log reader for shard of shards with three tenants and
// K=12, in partition mode.
func testReader(shard, shards int) *logReader {
	return &logReader{shard: shard, shards: shards, tenants: 3, k: 12, partition: true}
}

// TestWALCodecRoundtrip pins the log codec: what the tail encodes — a
// header, batch frames of first appearances and repeats, a quota frame —
// both readers (segment bytes and the tail's chunks in place) hand back
// entry for entry, and the bytes a live shard writes to its active segment
// are exactly its in-memory tail.
func TestWALCodecRoundtrip(t *testing.T) {
	var l logTail
	l.commit(encodeHeader(2, 4, 0))
	l.request(5, 0, 1, []byte("hello-key"))
	l.request(6, 1, 2, []byte("k2"))
	l.request(7, 0, 1, nil)
	l.closeFrame()
	l.quotas(9, []int{3, 0, 9})
	l.request(10, 1, 2, nil)
	l.closeFrame()
	// A seq gap closes the open frame by itself.
	l.request(12, 1, 2, nil)
	l.request(14, 2, 0, []byte("third"))
	l.closeFrame()

	want := []logEntry{
		{5, 0, 1, "hello-key", nil}, {6, 1, 2, "k2", nil}, {7, 0, 1, "", nil},
		{9, -1, -1, "", []int{3, 0, 9}}, {10, 1, 2, "", nil},
		{12, 1, 2, "", nil}, {14, 2, 0, "third", nil},
	}
	var seg []byte
	for _, c := range l.chunks {
		seg = append(seg, c...)
	}
	if len(seg) != l.bytes {
		t.Fatalf("tail counts %d bytes, chunks hold %d", l.bytes, len(seg))
	}
	var got collect
	r := testReader(2, 4)
	valid, torn, err := r.segment(bytes.NewReader(seg), 0, &got, nil)
	if err != nil || torn || valid != int64(len(seg)) {
		t.Fatalf("segment: valid=%d of %d torn=%v err=%v", valid, len(seg), torn, err)
	}
	if !reflect.DeepEqual(got.entries, want) {
		t.Fatalf("segment entries:\n got %+v\nwant %+v", got.entries, want)
	}
	if r.entries != len(want) || r.lastSeq != 14 || !reflect.DeepEqual(r.owners, []trace.Tenant{1, 2, 0}) {
		t.Errorf("reader state: entries %d lastSeq %d owners %v", r.entries, r.lastSeq, r.owners)
	}
	got = collect{}
	if err := testReader(2, 4).tail(l.chunks, &got); err != nil {
		t.Fatalf("tail: %v", err)
	}
	if !reflect.DeepEqual(got.entries, want) {
		t.Fatalf("tail entries:\n got %+v\nwant %+v", got.entries, want)
	}

	// One shape: a live shard's active segment on disk is its tail.
	dir := t.TempDir()
	svc := newWALService(t, Config{K: 64, Shards: 2, Tenants: 3, NewPolicy: testPolicy,
		WAL: testWAL(dir)})
	applyAll(t, svc, genRequests(3, 3, 300, 6000), 64)
	svc.Close()
	for _, sh := range svc.shards {
		disk, err := os.ReadFile(filepath.Join(sh.wal.dir, segName(sh.wal.segIndex)))
		if err != nil {
			t.Fatal(err)
		}
		var mem []byte
		for _, c := range sh.log.chunks {
			mem = append(mem, c...)
		}
		if sh.wal.segIndex == 0 || !bytes.Equal(disk, mem) {
			t.Fatalf("shard %d: segment %d holds %d bytes, the tail %d (equal %v)", sh.id, sh.wal.segIndex, len(disk), len(mem), bytes.Equal(disk, mem))
		}
	}
}

// TestScanSegmentTornAndCorrupt pins the torn-tail contract of the segment
// reader: any truncation or bit flip past the valid prefix is reported as
// torn with the prefix length, never as decoded garbage.
func TestScanSegmentTornAndCorrupt(t *testing.T) {
	var l logTail
	l.commit(encodeHeader(0, 1, 0))
	first := l.bytes
	l.request(1, 0, 0, []byte("k1"))
	l.closeFrame()
	second := l.bytes
	l.request(2, 1, 0, []byte("k2"))
	l.request(3, 0, 0, nil)
	l.closeFrame()
	buf := l.chunks[0]

	// Truncate at every byte boundary inside the last frame: the first two
	// frames must survive, the rest must be reported torn.
	for cut := second + 1; cut < len(buf); cut++ {
		var got collect
		valid, torn, err := testReader(0, 1).segment(bytes.NewReader(buf[:cut]), 0, &got, nil)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !torn || valid != int64(second) || len(got.entries) != 1 {
			t.Fatalf("cut=%d: torn=%v valid=%d entries=%d", cut, torn, valid, len(got.entries))
		}
	}
	// Flip one byte inside the middle frame's payload: CRC must catch it and
	// stop the read at the header.
	bad := append([]byte(nil), buf...)
	bad[first+frameHeaderBytes+1] ^= 0x40
	var got collect
	valid, torn, err := testReader(0, 1).segment(bytes.NewReader(bad), 0, &got, nil)
	if err != nil {
		t.Fatalf("flip: %v", err)
	}
	if !torn || valid != int64(first) || len(got.entries) != 0 {
		t.Fatalf("flip: torn=%v valid=%d entries=%d", torn, valid, len(got.entries))
	}
}

// driveAndStats runs reqs through a fresh WAL-backed service and returns its
// final stats, for use as the uninterrupted reference of recovery tests.
func driveAndStats(t *testing.T, cfg Config, reqs []Request, batch int) Stats {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	applyAll(t, svc, reqs, batch)
	return svc.Stats()
}

// TestRecoverCleanShutdown is the round-trip anchor: drive a classic-mode
// service across many segment rotations, close it cleanly, recover into a new
// instance by replaying every entry and require bit-identical stats, a clean
// verify (which streams the sealed segments back off disk), and a bounded
// in-memory log.
func TestRecoverCleanShutdown(t *testing.T) {
	const k, shards, tenants, n = 96, 2, 3, 30_000
	dir := t.TempDir()
	reqs := genRequests(21, tenants, 400, n)

	cfg := Config{K: k, Shards: shards, Tenants: tenants, NewPolicy: testPolicy, WAL: testWAL(dir)}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, svc, reqs, 512)
	requireClean(t, svc)
	before := svc.Stats()
	for _, sh := range before.Shards {
		if sh.Seg == 0 || sh.LogStart == 0 {
			t.Fatalf("shard %d never rotated (seg=%d logStart=%d); workload too small for the test", sh.Shard, sh.Seg, sh.LogStart)
		}
		if sh.LogStart+sh.LogLen != int(sh.Requests) {
			t.Errorf("shard %d: sealed %d + tail %d != %d entries", sh.Shard, sh.LogStart, sh.LogLen, sh.Requests)
		}
	}
	svc.Close()

	rcfg := cfg
	rcfg.WAL = testWAL(dir)
	rcfg.WAL.Recover = true
	svc2 := newWALService(t, rcfg)
	rep := svc2.Recovery()
	if rep == nil {
		t.Fatal("no recovery report")
	}
	if rep.Shards != shards || rep.Entries != n || rep.Requests != n {
		t.Errorf("recovered %d shards, %d entries, %d requests; want %d, %d, %d", rep.Shards, rep.Entries, rep.Requests, shards, n, n)
	}
	if got := normalizeStats(svc2.Stats()); !reflect.DeepEqual(got, normalizeStats(before)) {
		t.Errorf("recovered stats diverge:\n got %+v\nwant %+v", got, before)
	}
	requireClean(t, svc2)

	// The recovered service keeps serving and verifying.
	applyAll(t, svc2, reqs[:5000], 512)
	requireClean(t, svc2)
}

// TestRecoverWithoutRecoverFlagFails pins the guard against silently
// clobbering existing state.
func TestRecoverWithoutRecoverFlagFails(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{K: 16, Shards: 1, Tenants: 1, NewPolicy: testPolicy, WAL: testWAL(dir)}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, svc, genRequests(1, 1, 50, 100), 50)
	svc.Close()
	if _, err := New(cfg); err == nil {
		t.Fatal("New on a non-empty WAL dir without Recover must fail")
	}
}

// crashPoint drives reqs[:cut], optionally installs quotas right before the
// crash, then calls Crash() — the in-process kill -9 — and returns the frozen
// stats plus the service for further inspection.
func crashAt(t *testing.T, cfg Config, reqs []Request, cut, batch int, quotas []int) Stats {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, svc, reqs[:cut], batch)
	if quotas != nil {
		if err := svc.SetQuotas(quotas); err != nil {
			t.Fatal(err)
		}
	}
	svc.Crash()
	return svc.Stats()
}

// TestRecoverAfterCrash is the crash-point matrix: the three shard engines
// — the dense core (classic), the quota partition, and sim's map step
// (opaque: a policy that hides its *core.Fast type) — shard counts 1, 2 and
// 4, crashes at several log positions including immediately after a quota
// rebalance. At every point the recovered service must match the frozen
// pre-crash stats bit for bit, verify clean, and — after being driven with
// the remaining requests — agree exactly with an uninterrupted run of the
// full workload.
func TestRecoverAfterCrash(t *testing.T) {
	const k, tenants, n = 60, 3, 12_000
	reqs := genRequests(33, tenants, 300, n)
	newQuotas := []int{30, 20, 10}
	opaque := func() sim.Policy { return &opaquePolicy{inner: testPolicy().(sim.DensePolicy)} }

	for _, shards := range []int{1, 2, 4} {
		for _, mode := range []string{"classic", "partition", "opaque"} {
			for _, cut := range []int{0, 1, n / 3, n - 1} {
				t.Run(fmt.Sprintf("%s/shards=%d/cut=%d", mode, shards, cut), func(t *testing.T) {
					dir := t.TempDir()
					cfg := Config{K: k, Shards: shards, Tenants: tenants, WAL: testWAL(dir)}
					var rebalance []int
					switch mode {
					case "partition":
						cfg.Quotas = []int{k / 3, k / 3, k / 3}
						if cut > 1 {
							// Mid-rebalance crash point: the quota switch is the
							// final durable action before the crash.
							rebalance = newQuotas
						}
					case "opaque":
						cfg.NewPolicy = opaque
					default:
						cfg.NewPolicy = testPolicy
					}
					frozen := crashAt(t, cfg, reqs, cut, 512, rebalance)

					rcfg := cfg
					rcfg.WAL = testWAL(dir)
					rcfg.WAL.Recover = true
					svc := newWALService(t, rcfg)
					if got := normalizeStats(svc.Stats()); !reflect.DeepEqual(got, normalizeStats(frozen)) {
						t.Fatalf("recovered stats diverge from frozen pre-crash stats:\n got %+v\nwant %+v", got, frozen)
					}
					requireClean(t, svc)

					// Finish the workload on the recovered service: the result
					// must be exactly the uninterrupted run's.
					applyAll(t, svc, reqs[cut:], 512)
					requireClean(t, svc)

					refCfg := cfg
					refCfg.WAL = testWAL(t.TempDir())
					ref, err := New(refCfg)
					if err != nil {
						t.Fatal(err)
					}
					defer ref.Close()
					applyAll(t, ref, reqs[:cut], 512)
					if rebalance != nil {
						if err := ref.SetQuotas(rebalance); err != nil {
							t.Fatal(err)
						}
					}
					applyAll(t, ref, reqs[cut:], 512)
					if got, want := normalizeStats(svc.Stats()), normalizeStats(ref.Stats()); !reflect.DeepEqual(got, want) {
						t.Fatalf("crash+recover+continue diverges from uninterrupted run:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// opaquePolicy wraps a dense policy without exposing its concrete type, plus
// an optional one-shot panic trigger for the isolation tests.
type opaquePolicy struct {
	inner sim.DensePolicy
	trig  *atomic.Bool
}

func (p *opaquePolicy) maybePanic() {
	if p.trig != nil && p.trig.CompareAndSwap(true, false) {
		panic("injected engine fault")
	}
}

func (p *opaquePolicy) Name() string { return "opaque-" + p.inner.Name() }
func (p *opaquePolicy) OnHit(step int, r trace.Request) {
	p.maybePanic()
	p.inner.OnHit(step, r)
}
func (p *opaquePolicy) OnInsert(step int, r trace.Request) {
	p.maybePanic()
	p.inner.OnInsert(step, r)
}
func (p *opaquePolicy) Victim(step int, r trace.Request) trace.PageID { return p.inner.Victim(step, r) }
func (p *opaquePolicy) OnEvict(step int, pg trace.PageID)             { p.inner.OnEvict(step, pg) }
func (p *opaquePolicy) Reset()                                        { p.inner.Reset() }
func (p *opaquePolicy) PrepareDense(d *trace.Dense, k int) bool       { return p.inner.PrepareDense(d, k) }
func (p *opaquePolicy) StepBatch(base int, pages []int32, bc *sim.BatchCounters, warm bool) error {
	return p.inner.StepBatch(base, pages, bc, warm)
}

// TestRecoverTornTail damages the durable state by hand: garbage appended to
// the final segment must be truncated away (recovery succeeds, stats intact),
// while damage inside a sealed segment must fail recovery loudly — dropping
// acknowledged requests silently is never acceptable.
func TestRecoverTornTail(t *testing.T) {
	const k, tenants, n = 48, 2, 10_000
	build := func(t *testing.T, dir string) (Config, Stats) {
		cfg := Config{K: k, Shards: 1, Tenants: tenants, NewPolicy: testPolicy, WAL: testWAL(dir)}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyAll(t, svc, genRequests(17, tenants, 250, n), 512)
		st := svc.Stats()
		svc.Close()
		if st.Shards[0].Seg == 0 {
			t.Fatal("workload did not rotate segments")
		}
		return cfg, st
	}
	recoverCfg := func(cfg Config) Config {
		w := *cfg.WAL
		w.Recover = true
		cfg.WAL = &w
		return cfg
	}

	t.Run("garbage-tail", func(t *testing.T) {
		dir := t.TempDir()
		cfg, before := build(t, dir)
		last := filepath.Join(dir, "shard-000", segName(before.Shards[0].Seg))
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("\x77\x13garbage from a torn write")); err != nil {
			t.Fatal(err)
		}
		f.Close()

		svc := newWALService(t, recoverCfg(cfg))
		if svc.Recovery().Truncations == 0 {
			t.Error("torn tail was not truncated")
		}
		if got := normalizeStats(svc.Stats()); !reflect.DeepEqual(got, normalizeStats(before)) {
			t.Errorf("recovered stats diverge:\n got %+v\nwant %+v", got, before)
		}
		requireClean(t, svc)
	})

	t.Run("sealed-segment-corruption", func(t *testing.T) {
		dir := t.TempDir()
		cfg, _ := build(t, dir)
		sealed := filepath.Join(dir, "shard-000", segName(0))
		data, err := os.ReadFile(sealed)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(sealed, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(recoverCfg(cfg)); err == nil {
			t.Fatal("recovery must refuse a corrupt sealed segment")
		}
	})
}

// TestRecoverTornWriteMidBatch crashes the storage layer mid-group-commit
// with the deterministic fault injector: the shard must fail the batch
// (ResultError — unacknowledged work), and a later recovery on healthy
// storage must truncate the torn frame and come back serving and verifying
// clean.
func TestRecoverTornWriteMidBatch(t *testing.T) {
	const k, tenants = 48, 2
	dir := t.TempDir()
	reqs := genRequests(29, tenants, 250, 20_000)

	ffs := fault.NewFS(fault.OSFS, fault.FSConfig{Seed: 3, CrashAtWrite: 40}, nil)
	cfg := Config{K: k, Shards: 2, Tenants: tenants, NewPolicy: testPolicy,
		WAL: &WALConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 4096, FS: ffs}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	for lo := 0; lo+128 <= len(reqs); lo += 128 {
		if _, err := svc.Apply(reqs[lo : lo+128]); err != nil {
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("fault injector never fired")
	}
	if svc.Err() == nil {
		t.Error("Err() must report the WAL failure")
	}
	svc.Close()

	rcfg := Config{K: k, Shards: 2, Tenants: tenants, NewPolicy: testPolicy,
		WAL: &WALConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 4096, Recover: true}}
	svc2 := newWALService(t, rcfg)
	rep := svc2.Recovery()
	if rep.Truncations == 0 {
		t.Error("mid-batch torn write left no truncation")
	}
	st := svc2.Stats()
	if st.Requests != rep.Requests {
		t.Errorf("stats report %d requests, recovery %d", st.Requests, rep.Requests)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	requireClean(t, svc2)
	applyAll(t, svc2, reqs[:2000], 256)
	requireClean(t, svc2)
}

// TestRecoverQuotaSkew cuts one shard's quota-control entry out of its
// durable log (a torn tail right on the rebalance): recovery must reconcile
// the shards onto the newest quota vector and still verify clean.
func TestRecoverQuotaSkew(t *testing.T) {
	const k, tenants, n = 60, 3, 6000
	dir := t.TempDir()
	reqs := genRequests(41, tenants, 250, n)
	cfg := Config{K: k, Shards: 2, Tenants: tenants, Quotas: []int{20, 20, 20}, WAL: testWAL(dir)}
	newQuotas := []int{30, 20, 10}
	crashAt(t, cfg, reqs, n, 512, newQuotas)

	// Chop bytes off shard 1's final segment so its last frame — the quota
	// control entry — is torn away, leaving the shards on different vectors.
	var seg string
	segs, err := listSegments(fault.OSFS, filepath.Join(dir, "shard-001"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("list shard-001 segments: %v (%d)", err, len(segs))
	}
	seg = filepath.Join(dir, "shard-001", segName(segs[len(segs)-1]))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-4); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.WAL = testWAL(dir)
	rcfg.WAL.Recover = true
	svc := newWALService(t, rcfg)
	if got := svc.Quotas(); !reflect.DeepEqual(got, newQuotas) {
		t.Errorf("reconciled quotas = %v, want %v", got, newQuotas)
	}
	if svc.Recovery().Truncations == 0 {
		t.Error("no truncation recorded")
	}
	requireClean(t, svc)
}

// TestPanicIsolation injects a one-shot engine panic into one shard of four:
// only that shard's requests may shed, the shard must rebuild from its own
// history without a process restart, and the service must then serve and
// verify clean again — with every pre-panic request still accounted for.
func TestPanicIsolation(t *testing.T) {
	const k, shards, tenants, n = 96, 4, 2, 20_000
	dir := t.TempDir()
	trig := &atomic.Bool{}
	cfg := Config{K: k, Shards: shards, Tenants: tenants,
		NewPolicy: func() sim.Policy { return &opaquePolicy{inner: testPolicy().(sim.DensePolicy), trig: trig} },
		WAL:       testWAL(dir)}
	svc := newWALService(t, cfg)
	reqs := genRequests(55, tenants, 300, n)
	applyAll(t, svc, reqs[:n/2], 512)

	trig.Store(true)
	var downShard = -1
	sawShed := false
	deadline := time.Now().Add(10 * time.Second)
	for lo := n / 2; ; lo += 512 {
		if lo+512 > len(reqs) {
			lo = 0
		}
		res, err := svc.Apply(reqs[lo : lo+512])
		if err == nil {
			if sawShed {
				break // shard is back
			}
			if time.Now().After(deadline) {
				t.Fatal("panic never fired")
			}
			continue
		}
		if err != ErrShardDown {
			t.Fatalf("apply: %v", err)
		}
		sawShed = true
		// Only one shard's requests may shed.
		for i, c := range res {
			if c != ResultShed {
				continue
			}
			r := reqs[lo+i]
			sh := svc.route(r.Tenant, r.Key)
			if downShard == -1 {
				downShard = sh
			} else if sh != downShard {
				t.Fatalf("requests shed on shards %d and %d; isolation broken", downShard, sh)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never came back from rebuild")
		}
	}
	if !sawShed || downShard == -1 {
		t.Fatal("no request was shed around the panic")
	}
	if err := svc.Err(); err != nil {
		t.Fatalf("shard stayed failed: %v", err)
	}
	st := svc.Stats()
	for _, sh := range st.Shards {
		if sh.Down || sh.Failed {
			t.Errorf("shard %d still down/failed after rebuild", sh.Shard)
		}
	}
	if reg := svc.Registry(); reg.Counter("cached_shard_down_total").Value() == 0 ||
		reg.Counter("cached_shard_restarts_total").Value() == 0 ||
		reg.Counter("cached_shed_total").Value() == 0 {
		t.Error("robustness counters did not move")
	}
	requireClean(t, svc)

	// A clean shutdown and recovery must still work after the rebuild.
	svc.Close()
	rcfg := cfg
	rcfg.WAL = testWAL(dir)
	rcfg.WAL.Recover = true
	before := normalizeStats(svc.Stats())
	svc2 := newWALService(t, rcfg)
	if got := normalizeStats(svc2.Stats()); !reflect.DeepEqual(got, before) {
		t.Errorf("post-rebuild recovery diverges:\n got %+v\nwant %+v", got, before)
	}
	requireClean(t, svc2)
}

// syncClock wraps an FS and records when the WAL last wrote and synced.
type syncClock struct {
	fault.FS
	lastWrite, lastSync, syncs atomic.Int64
}

func (c *syncClock) Append(name string) (fault.File, error) {
	f, err := c.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &syncClockFile{File: f, c: c}, nil
}

type syncClockFile struct {
	fault.File
	c *syncClock
}

func (f *syncClockFile) Write(p []byte) (int, error) {
	f.c.lastWrite.Store(time.Now().UnixNano())
	return f.File.Write(p)
}

func (f *syncClockFile) Sync() error {
	err := f.File.Sync()
	f.c.lastSync.Store(time.Now().UnixNano())
	f.c.syncs.Add(1)
	return err
}

// TestFsyncIntervalSyncsWhenIdle pins the interval policy's bound when
// traffic stops: two batches back to back, then nothing — the second must
// still be synced within the interval (plus scheduling slack), not wait
// for the next batch. After Crash nothing syncs.
func TestFsyncIntervalSyncsWhenIdle(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &syncClock{FS: fault.OSFS}
	svc := newWALService(t, Config{K: 16, Shards: 1, Tenants: 1, NewPolicy: testPolicy,
		WAL: &WALConfig{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncInterval: interval, FS: clk}})
	for _, key := range []string{"a", "b"} {
		if _, err := svc.Apply([]Request{{Op: OpPut, Key: []byte(key)}}); err != nil {
			t.Fatal(err)
		}
	}
	wrote := time.Unix(0, clk.lastWrite.Load())
	deadline := wrote.Add(interval + 50*time.Millisecond)
	for clk.lastSync.Load() < clk.lastWrite.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("the last batch is still unsynced %v after its write (%d syncs)", time.Since(wrote), clk.syncs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if synced := time.Unix(0, clk.lastSync.Load()); synced.After(deadline) {
		t.Fatalf("the last batch synced %v after its write, bound %v", synced.Sub(wrote), interval+50*time.Millisecond)
	}

	if _, err := svc.Apply([]Request{{Op: OpPut, Key: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	svc.Crash()
	syncs := clk.syncs.Load()
	time.Sleep(5 * interval)
	if got := clk.syncs.Load(); got != syncs {
		t.Fatalf("%d syncs after Crash", got-syncs)
	}
}
