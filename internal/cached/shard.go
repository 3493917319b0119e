package cached

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"convexcache/internal/core"
	"convexcache/internal/mrclive"
	"convexcache/internal/obs"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// shardMsg is a mailbox message: a batch to apply (reqs/idxs/results/done
// set — idxs are this shard's indices into the Apply caller's reqs slice, in
// batch order), a snapshot request (snap set), or a quota-change control
// message (quotas set, partition mode only).
type shardMsg struct {
	reqs    []Request
	idxs    []int32
	results []byte
	done    *sync.WaitGroup

	snap    chan *ShardSnapshot
	withLog bool
	withMRC bool

	quotas     []int
	quotasDone *sync.WaitGroup
}

// inflight tracks the message the shard loop is currently serving, so a
// panic inside the engine can still answer the waiting Apply / SetQuotas /
// snapshot caller instead of deadlocking it.
type inflight struct {
	idxs    []int32
	results []byte
	pos     int
	wg      *sync.WaitGroup
	snap    chan *ShardSnapshot
}

// ShardSnapshot is a consistent copy of one shard's accounting, taken on a
// batch boundary.
type ShardSnapshot struct {
	Shard     int
	K         int
	Requests  int64
	Occupancy int
	// LogStart is the logical index of the first in-memory log entry; the
	// sealed prefix [0, LogStart) lives in WAL segments on disk.
	LogStart int
	LogLen   int
	// Seg is the active WAL segment index (0 without a WAL); segments below
	// it are sealed and immutable.
	Seg   int
	Pages int
	// Down reports the shard is shedding while it rebuilds after a panic.
	Down bool
	// Hits/Misses/Evictions are per-tenant, length Config.Tenants.
	Hits      []int64
	Misses    []int64
	Evictions []int64
	// tail views the shard's in-memory log, the active segment's frames, in
	// place; nil unless requested.
	tail [][]byte
	// MRC is the shard sampler's window accounting; nil unless requested
	// (or the service runs without an estimator).
	MRC []mrclive.TenantWindow
	// Err is the shard's failure state (policy contract violation or WAL
	// write failure), if any.
	Err error
}

// shard is one single-writer cache partition. All fields below the mailbox
// are owned exclusively by the loop goroutine — no locks anywhere on the
// request path (down is the one atomic, read by ingress to shed early). The
// engine step is the replay engine's own (the dense core's per-request
// methods, or sim's map step for other policies), so per-shard live
// counters are bit-identical to a per-shard offline replay of the same log —
// the property both Verify and crash recovery are built on.
type shard struct {
	svc *Service
	id  int
	k   int
	in  chan shardMsg

	// down is set while the shard rebuilds after an engine panic: ingress
	// sheds requests for this shard (503 + Retry-After) instead of queuing
	// behind the rebuild.
	down atomic.Bool

	// wal is the shard's write-ahead log; nil when durability is disabled.
	wal *shardWAL

	// Exactly one engine steps requests: open (the dense shard core, for
	// core.Fast), mc (sim's map step, for any other policy), or qlru
	// (partition mode, adaptive per-tenant quotas).
	open *core.Open
	mc   *sim.MapCache
	qlru *quotaLRU
	// sampler is the shard's streaming MRC estimator (nil when disabled);
	// owned by the loop goroutine like all other state, so Observe runs
	// lock-free on the request path.
	sampler *mrclive.Sampler
	// keys interns tenant-scoped keys to page ids (one table per tenant).
	// Shard s assigns ids from the residue class {s, s+n, s+2n, ...} in
	// first-appearance order: the page's slot (page−s)/n is the count of
	// pages before it, so ownership is recoverable as page mod n at replay
	// time.
	keys  []keyTable
	pages int
	// log holds the frames of the active WAL segment only (the whole
	// history without a WAL); logStart is the logical index of its first
	// entry, and steps is the total logical entry count — also the policy
	// step counter.
	log      logTail
	logStart int
	steps    int
	// lastSeq is the newest global sequence number this shard admitted;
	// lastQuotaSeq the newest quota-control entry's (for quota reconcile
	// after recovery). quotasNow is the global quota vector as of this
	// shard's log position (partition mode).
	lastSeq      int64
	lastQuotaSeq int64
	quotasNow    []int
	// reqs counts admitted requests (log entries minus quota controls).
	reqs      int64
	hits      []int64
	misses    []int64
	evictions []int64
	failed    error
	// panicErr records the most recent engine panic; cur the in-flight
	// message (loop-goroutine-owned, read by the recover handler on the
	// same goroutine).
	panicErr error
	cur      *inflight
	// syncC delivers the idle-sync timer's tick while the interval fsync
	// policy leaves written bytes unsynced; nil otherwise.
	syncTimer *time.Timer
	syncC     <-chan time.Time

	mReqs, mHits, mMisses, mEvictions     *obs.Counter
	mOccupancy, mLog, mLogBytes, mMailbox *obs.Gauge
	// pub* are the counter values already published to the registry; the
	// metrics are brought up to date by delta at batch boundaries instead of
	// per request, keeping atomics off the request path. Rebuild and
	// recovery replay reproduce the counters bit-exactly, so the deltas stay
	// correct across both.
	pubReqs, pubHits, pubMisses, pubEvictions int64
}

func newShard(svc *Service, id, k int) (*shard, error) {
	lbl := fmt.Sprintf(`{shard="%d"}`, id)
	sh := &shard{
		svc:       svc,
		id:        id,
		k:         k,
		in:        make(chan shardMsg, svc.cfg.MailboxDepth),
		keys:      make([]keyTable, svc.cfg.Tenants),
		hits:      make([]int64, svc.cfg.Tenants),
		misses:    make([]int64, svc.cfg.Tenants),
		evictions: make([]int64, svc.cfg.Tenants),

		mReqs:      svc.reg.Counter("cached_requests_total" + lbl),
		mHits:      svc.reg.Counter("cached_hits_total" + lbl),
		mMisses:    svc.reg.Counter("cached_misses_total" + lbl),
		mEvictions: svc.reg.Counter("cached_evictions_total" + lbl),
		mOccupancy: svc.reg.Gauge("cached_occupancy_pages" + lbl),
		mLog:       svc.reg.Gauge("cached_log_entries" + lbl),
		mLogBytes:  svc.reg.Gauge("cached_log_bytes" + lbl),
		mMailbox:   svc.reg.Gauge("cached_shard_mailbox_depth" + lbl),
	}
	sh.resetLog()
	if err := sh.newEngine(); err != nil {
		return nil, err
	}
	if svc.cfg.MRC != nil {
		mc := *svc.cfg.MRC
		mc.Tenants = svc.cfg.Tenants
		mc.Scale = svc.cfg.Shards
		var err error
		if sh.sampler, err = mrclive.NewSampler(mc); err != nil {
			return nil, fmt.Errorf("cached: mrc config: %w", err)
		}
	}
	if svc.walCfg != nil {
		sh.wal = newShardWAL(svc.walCfg, id)
	}
	return sh, nil
}

// newEngine builds a fresh engine for the shard: the quota partition in
// partition mode; otherwise the dense shard core — the same denseCore the
// replay engine runs, over this shard's residue-class page ids — for
// core.Fast, and sim's map step for any other policy.
func (sh *shard) newEngine() error {
	cfg := sh.svc.cfg
	sh.open, sh.mc, sh.qlru = nil, nil, nil
	if cfg.Quotas != nil {
		sh.qlru = newQuotaLRU(localQuotas(cfg.Quotas, cfg.Shards, sh.id), cfg.Shards, sh.id)
		sh.quotasNow = append(sh.quotasNow[:0], cfg.Quotas...)
		return nil
	}
	p := cfg.NewPolicy()
	f, ok := p.(*core.Fast)
	if !ok {
		sh.mc = sim.NewMapCache(p, sh.k)
		return nil
	}
	o, err := f.OpenWorld(cfg.Tenants, sh.k, cfg.Shards, sh.id)
	if err != nil {
		return fmt.Errorf("cached: shard %d: %w", sh.id, err)
	}
	sh.open = o
	return nil
}

// localQuotas derives shard id's slice of a global per-tenant quota vector:
// tenant t gets sim.ShardShare(q[t], n, id) pages, so summing local quotas
// over all shards reproduces each global quota (and therefore K) exactly —
// the same split rule the shard capacities themselves use.
func localQuotas(global []int, n, id int) []int {
	local := make([]int, len(global))
	for t, q := range global {
		local[t] = sim.ShardShare(q, n, id)
	}
	return local
}

// loop is the shard's goroutine: serve the mailbox until Close closes it,
// and on an engine panic isolate the failure — mark the shard down, rebuild
// it from its own durable history while the other shards keep serving, then
// resume. A clean shutdown seals the WAL (final write and sync); a
// simulated kill -9 (Service.Crash) skips that on purpose.
func (sh *shard) loop() {
	defer sh.svc.wg.Done()
	for {
		if sh.serve() {
			if sh.syncTimer != nil {
				sh.syncTimer.Stop()
			}
			if sh.wal != nil {
				if sh.failed == nil && !sh.svc.crashed.Load() {
					sh.sealWAL()
				} else if sh.wal.f != nil {
					// Crashed or failed: drop the handle without writing or
					// syncing — unwritten frames are lost exactly as a
					// killed process would lose them.
					sh.wal.f.Close()
				}
			}
			return
		}
		sh.svc.mShardDown.Inc()
		sh.rebuild()
		if sh.failed == nil {
			sh.svc.mShardRestarts.Inc()
		}
		sh.down.Store(false)
	}
}

// serve drains the mailbox, and syncs the WAL when the idle-sync timer
// fires; returns true when the mailbox closed (shutdown) and false when a
// panic escaped the engine (the caller rebuilds).
func (sh *shard) serve() (closed bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicErr = fmt.Errorf("cached: shard %d panicked: %v", sh.id, r)
			sh.down.Store(true)
			sh.abortInflight()
		}
	}()
	for {
		select {
		case m, ok := <-sh.in:
			if !ok {
				return true
			}
			sh.handle(m)
		case <-sh.syncC:
			sh.syncIdle()
		}
	}
}

// abortInflight answers the message interrupted by a panic: remaining batch
// slots are shed, waiting callers released. Runs on the loop goroutine
// inside the recover handler.
func (sh *shard) abortInflight() {
	cur := sh.cur
	sh.cur = nil
	if cur == nil {
		return
	}
	if cur.snap != nil {
		t := sh.svc.cfg.Tenants
		cur.snap <- &ShardSnapshot{
			Shard: sh.id, K: sh.k, Down: true, Err: sh.panicErr,
			Hits: make([]int64, t), Misses: make([]int64, t), Evictions: make([]int64, t),
		}
		return
	}
	for _, ix := range cur.idxs[cur.pos:] {
		if cur.results[ix] == 0 {
			cur.results[ix] = ResultShed
		}
	}
	if cur.wg != nil {
		cur.wg.Done()
	}
}

// handle serves one mailbox message. After a Service.Crash every queued
// batch is shed instead of applied — the process is pretending to be dead.
func (sh *shard) handle(m shardMsg) {
	if m.snap != nil {
		sh.cur = &inflight{snap: m.snap}
		m.snap <- sh.snapshot(m.withLog, m.withMRC)
		sh.cur = nil
		return
	}
	if m.quotas != nil {
		sh.cur = &inflight{wg: m.quotasDone}
		if !sh.svc.crashed.Load() {
			sh.applyQuotas(m.quotas)
			sh.afterBatch(nil)
			sh.publishMetrics()
		}
		sh.cur = nil
		m.quotasDone.Done()
		return
	}
	cur := &inflight{idxs: m.idxs, results: m.results, wg: m.done}
	sh.cur = cur
	if sh.svc.crashed.Load() {
		// The process is pretending to be dead: shed the whole batch. The
		// check is per batch, not per request — Crash lands between batches
		// from any serving goroutine's perspective.
		for _, ix := range m.idxs {
			m.results[ix] = ResultShed
		}
	} else {
		// One atomic draw reserves the whole batch's sequence numbers: this
		// single-writer loop applies the batch in order, so consecutive seqs
		// keep the per-shard strict increase Verify checks, and the
		// lock-prefixed add leaves the per-request path. Seqs reserved for
		// requests a mid-batch shard failure rejects are never logged; the
		// log needs strict increase, not contiguity.
		seq := sh.svc.seq.Add(int64(len(m.idxs))) - int64(len(m.idxs))
		for i, ix := range m.idxs {
			cur.pos = i
			seq++
			m.results[ix] = sh.apply(&m.reqs[ix], seq)
		}
	}
	cur.pos = len(m.idxs)
	sh.log.closeFrame()
	if !sh.svc.crashed.Load() {
		sh.afterBatch(cur)
		sh.publishMetrics()
	}
	sh.cur = nil
	m.done.Done()
}

// appendQuotaEntry admits one quota-control entry (partition mode).
func (sh *shard) appendQuotaEntry(seq int64, quotas []int) {
	sh.log.quotas(seq, quotas)
	sh.noteQuotaEntry(seq)
}

// noteQuotaEntry is the step bookkeeping of a quota-control entry, shared
// by the live path and replay.
func (sh *shard) noteQuotaEntry(seq int64) {
	sh.steps++
	sh.lastSeq = seq
	sh.lastQuotaSeq = seq
}

// resetLog starts a fresh tail at the current entry: a new chunk list
// opening with the header frame, so chunks a snapshot still reads are never
// written again.
func (sh *shard) resetLog() {
	sh.log = logTail{}
	sh.log.commit(encodeHeader(sh.id, len(sh.svc.shards), sh.steps))
	sh.logStart = sh.steps
}

// writeLog writes the tail's unwritten frames to the active segment.
func (sh *shard) writeLog() error { return sh.log.unwritten(sh.wal.write) }

// flushLog is group commit: write the batch's frame from the tail, then
// apply the fsync policy.
func (sh *shard) flushLog(now time.Time) error {
	if err := sh.writeLog(); err != nil {
		return err
	}
	return sh.wal.commit(now)
}

// openSegment makes segment index the active one and writes the tail's
// unwritten frames — its header — there, synced unless fsync is off, so
// the segment is self-describing even if the process dies before the
// first batch.
func (sh *shard) openSegment(index int) error {
	if err := sh.wal.open(index); err != nil {
		return err
	}
	if err := sh.writeLog(); err != nil {
		return err
	}
	if sh.wal.fsync == FsyncOff {
		return nil
	}
	return sh.wal.sync(time.Now())
}

// afterBatch runs the durability work riding each mailbox batch: group
// commit (one write + fsync per policy) and segment rotation (which bounds
// the in-memory log to the active segment). A WAL write failure fails the
// shard — the batch cannot be acknowledged as applied when its entries may
// not survive a restart.
func (sh *shard) afterBatch(cur *inflight) {
	if sh.wal == nil || sh.failed != nil {
		return
	}
	now := time.Now()
	if err := sh.flushLog(now); err != nil {
		sh.walFail(err, cur)
		return
	}
	if sh.wal.size >= sh.wal.segBytes {
		err := sh.wal.seal()
		if err == nil {
			sh.resetLog()
			err = sh.openSegment(sh.wal.segIndex + 1)
		}
		if err != nil {
			sh.walFail(err, cur)
			return
		}
	}
	sh.armSync(now)
}

// armSync starts the idle-sync timer when the interval fsync policy leaves
// written bytes unsynced, so they reach the disk within one interval even
// if no batch follows. The timer is reset only after its tick has been
// received, so no stale tick can arrive.
func (sh *shard) armSync(now time.Time) {
	w := sh.wal
	if w.fsync != FsyncInterval || !w.dirty || sh.syncC != nil {
		return
	}
	d := w.syncEvery - now.Sub(w.lastSync)
	if sh.syncTimer == nil {
		sh.syncTimer = time.NewTimer(d)
	} else {
		sh.syncTimer.Reset(d)
	}
	sh.syncC = sh.syncTimer.C
}

// syncIdle runs on the shard goroutine when the idle-sync timer fires. A
// failed sync fails the shard, like a failed group commit; after Crash
// nothing syncs.
func (sh *shard) syncIdle() {
	sh.syncC = nil
	if sh.failed != nil || sh.svc.crashed.Load() {
		return
	}
	now := time.Now()
	if err := sh.wal.commit(now); err != nil {
		sh.walFail(err, nil)
		return
	}
	sh.armSync(now)
}

// walFail marks the shard failed and retracts the current batch's results:
// the entries were applied in memory but are not durable, so acknowledging
// them would break the recovery contract.
func (sh *shard) walFail(err error, cur *inflight) {
	sh.failed = fmt.Errorf("cached: shard %d wal: %w", sh.id, err)
	sh.svc.mWALErrors.Inc()
	if cur != nil {
		for _, ix := range cur.idxs {
			cur.results[ix] = ResultError
		}
	}
}

// sealWAL is the clean-shutdown path: write, sync and close the active
// segment.
func (sh *shard) sealWAL() {
	err := sh.writeLog()
	if err == nil {
		err = sh.wal.seal()
	}
	if err != nil {
		sh.svc.mWALErrors.Inc()
	}
}

// applyQuotas installs a new global quota vector (partition mode): the
// change is logged as a control entry at this shard's next sequence number,
// then the shard-local quotas are derived and applied, trimming shrinking
// tenants' LRU tails. Because the entry sits in the log at the exact step
// the live engine switched quotas, the offline replay switches at the same
// step and stays bit-identical.
func (sh *shard) applyQuotas(global []int) {
	if sh.qlru == nil || sh.failed != nil {
		return
	}
	sh.appendQuotaEntry(sh.svc.seq.Add(1), global)
	sh.stepQuotas(global)
}

// stepQuotas is the engine side of a quota switch, shared verbatim by the
// live path and recovery replay: derive local shares, trim, count.
func (sh *shard) stepQuotas(global []int) int {
	total := 0
	for t, n := range sh.qlru.SetQuotas(localQuotas(global, sh.svc.cfg.Shards, sh.id)) {
		if n > 0 {
			sh.evictions[t] += int64(n)
			total += n
		}
	}
	sh.quotasNow = append(sh.quotasNow[:0], global...)
	return total
}

// apply runs one live request through the shard: key interning, the log
// append under the batch-reserved sequence number seq (the page's slot, plus
// tenant and key on its first appearance), then the engine step. Metrics are
// deliberately absent — publishMetrics reconciles the registry from the
// shard counters at batch boundaries, keeping atomics off the request path.
func (sh *shard) apply(r *Request, seq int64) byte {
	if sh.failed != nil {
		return ResultError
	}
	kt := &sh.keys[r.Tenant]
	h, pre := hashKey(r.Key)
	page, seen := kt.lookup(h, pre, r.Key)
	if seen {
		sh.log.request(seq, int(page)/len(sh.svc.shards), r.Tenant, nil)
	} else {
		sh.log.request(seq, sh.pages, r.Tenant, r.Key)
		page = trace.PageID(sh.id + sh.pages*len(sh.svc.shards))
		sh.pages++
		kt.insert(h, pre, r.Key, page)
	}
	sh.steps++
	sh.lastSeq = seq
	if sh.sampler != nil {
		sh.sampler.Observe(r.Tenant, page)
	}
	res, _ := sh.stepRequest(page, r.Tenant)
	return res
}

// stepRequest is the engine step for the already-logged request at logical
// index steps-1. The live path and the replay of a quota or map engine run
// it; a dense replay serves the same requests in runs through the core's
// batched step, which the core keeps bit-exact with this one. Returns the
// result byte and the eviction count (0 or 1).
func (sh *shard) stepRequest(page trace.PageID, t trace.Tenant) (byte, int) {
	sh.reqs++
	var (
		hit bool
		vo  = trace.Tenant(-1)
		err error
	)
	switch {
	case sh.open != nil:
		// Dense shard core: an error here (out-of-class page, owner flip) is
		// interner corruption; the shard fails rather than serving requests
		// it cannot replay.
		hit, vo, err = sh.open.Access(page, t)
	case sh.qlru != nil:
		var evicted bool
		hit, evicted = sh.qlru.Access(t, page)
		if evicted {
			vo = t
		}
	default:
		hit, _, vo, err = sh.mc.Access(sh.steps-1, trace.Request{Page: page, Tenant: t})
	}
	if err != nil {
		sh.failed = fmt.Errorf("cached: shard %d: %w", sh.id, err)
		return ResultError, 0
	}
	if hit {
		sh.hits[t]++
		return ResultHit, 0
	}
	sh.misses[t]++
	if vo >= 0 {
		sh.evictions[vo]++
		return ResultMiss, 1
	}
	return ResultMiss, 0
}

// replay is the logVisitor that feeds a log read back to the shard's own
// engine and key table, for recovery and for rebuild after a panic. The
// key table and the engine change exactly as on the live path, except that
// a dense shard serves each batch frame's requests through the core's
// batched step (core.Open.Run; a slot is the core.Open record index),
// which leaves the state serving them one at a time leaves.
type replay struct {
	sh *shard
	bc sim.BatchCounters // a dense frame's misses and evictions
}

func newReplay(sh *shard) *replay {
	tenants := len(sh.hits)
	return &replay{sh: sh, bc: sim.BatchCounters{Misses: make([]int64, tenants), Evictions: make([]int64, tenants)}}
}

// page interns a page's key at the slot the log gives it, which must be
// the next one.
func (p *replay) page(slot int, t trace.Tenant, key []byte) error {
	sh := p.sh
	kt := &sh.keys[t]
	h, pre := hashKey(key)
	if _, dup := kt.lookup(h, pre, key); dup {
		return fmt.Errorf("key %q of tenant %d first appears twice", key, t)
	}
	if slot != sh.pages {
		return fmt.Errorf("slot %d first appears with %d pages interned", slot, sh.pages)
	}
	page := trace.PageID(sh.id + slot*len(sh.svc.shards))
	kt.insert(h, pre, key, page)
	sh.pages++
	if sh.open != nil {
		_, err := sh.open.Bind(page, t)
		return err
	}
	return nil
}

// requests re-applies a batch frame's requests.
func (p *replay) requests(seq int64, slots []int32, owners []trace.Tenant) error {
	sh, n := p.sh, len(p.sh.svc.shards)
	if sh.open == nil {
		for _, slot := range slots {
			sh.steps++
			sh.lastSeq = seq
			seq++
			if sh.stepRequest(trace.PageID(sh.id+int(slot)*n), owners[slot]); sh.failed != nil {
				return sh.failed
			}
		}
		return nil
	}
	// hits holds the frame's requests until its misses are subtracted.
	for _, slot := range slots {
		sh.hits[owners[slot]]++
	}
	sh.steps += len(slots)
	sh.reqs += int64(len(slots))
	sh.lastSeq = seq + int64(len(slots)) - 1
	err := sh.open.Run(slots, &p.bc)
	for t, m := range p.bc.Misses {
		sh.hits[t] -= m
		sh.misses[t] += m
		sh.evictions[t] += p.bc.Evictions[t]
		p.bc.Misses[t], p.bc.Evictions[t] = 0, 0
	}
	if err != nil {
		sh.failed = fmt.Errorf("cached: shard %d: %w", sh.id, err)
	}
	return sh.failed
}

func (p *replay) quotas(seq int64, q []int) error {
	p.sh.noteQuotaEntry(seq)
	p.sh.stepQuotas(q)
	return nil
}

// reset returns everything a replay of the log derives — the engine,
// counters, step and sequence bookkeeping, the key table and page count —
// to its birth state, before rebuild replays the log. The log itself is
// left alone.
func (sh *shard) reset() {
	sh.failed = sh.newEngine()
	sh.reqs = 0
	for t := range sh.hits {
		sh.hits[t], sh.misses[t], sh.evictions[t] = 0, 0, 0
		sh.keys[t] = keyTable{}
	}
	sh.steps, sh.lastSeq, sh.lastQuotaSeq, sh.pages = 0, 0, 0, 0
}

// rebuild restores the shard after an engine panic by replaying its own
// history — sealed WAL segments from disk plus the in-memory tail — through
// a fresh engine, exactly as recovery does. The log survives panics intact
// (it is plain data appended before any engine call); the entries applied
// before the panic stay in it, their frame closed first. A second panic
// during the replay is deterministic and marks the shard permanently
// failed.
func (sh *shard) rebuild() {
	defer func() {
		if r := recover(); r != nil {
			sh.failed = fmt.Errorf("cached: shard %d: repeated panic during rebuild: %v (first: %v)", sh.id, r, sh.panicErr)
		}
	}()
	sh.log.closeFrame()
	steps := sh.steps
	sh.reset()
	r, p := sh.svc.newLogReader(sh.id), newReplay(sh)
	err := sh.failed
	if err == nil && sh.wal != nil {
		err = r.sealed(sh.wal.fs, sh.wal.dir, sh.wal.segIndex, p)
	}
	if err == nil {
		err = r.tail(sh.log.chunks, p)
	}
	if err == nil && sh.steps != steps {
		err = fmt.Errorf("replay produced %d entries, the shard had %d", sh.steps, steps)
	}
	if err != nil {
		sh.failed = fmt.Errorf("cached: shard %d: rebuild after panic (%v): %w", sh.id, sh.panicErr, err)
	}
}

// occupancy is the active engine's resident page count.
func (sh *shard) occupancy() int {
	switch {
	case sh.qlru != nil:
		return sh.qlru.Occupancy()
	case sh.open != nil:
		return sh.open.Used()
	}
	return sh.mc.Len()
}

// publishMetrics reconciles the obs registry with the shard's counters,
// adding only the delta since the last publication. Called at batch
// boundaries (including the empty batch after a quota change) and once
// after recovery replay, when the registry starts from zero and the delta
// is the whole recovered history. Panic rebuilds replay the log bit-exactly
// back to the pre-panic counters, so the baselines stay valid across them.
func (sh *shard) publishMetrics() {
	var h, m, e int64
	for t := range sh.hits {
		h += sh.hits[t]
		m += sh.misses[t]
		e += sh.evictions[t]
	}
	sh.mReqs.Add(sh.reqs - sh.pubReqs)
	sh.mHits.Add(h - sh.pubHits)
	sh.mMisses.Add(m - sh.pubMisses)
	sh.mEvictions.Add(e - sh.pubEvictions)
	sh.pubReqs, sh.pubHits, sh.pubMisses, sh.pubEvictions = sh.reqs, h, m, e
	sh.mOccupancy.Set(int64(sh.occupancy()))
	sh.mLog.Set(int64(sh.steps))
	sh.mLogBytes.Set(int64(sh.log.bytes))
	sh.mMailbox.Set(int64(len(sh.in)))
}

// snapshot copies the shard's accounting; the log is handed over as views
// of the tail's chunks, not copied. Called from the loop goroutine while
// serving, or from snapshotAll after the loop has exited.
func (sh *shard) snapshot(withLog, withMRC bool) *ShardSnapshot {
	sh.log.closeFrame()
	snap := &ShardSnapshot{
		Shard:     sh.id,
		K:         sh.k,
		Requests:  sh.reqs,
		Occupancy: sh.occupancy(),
		LogStart:  sh.logStart,
		LogLen:    sh.steps - sh.logStart,
		Pages:     sh.pages,
		Down:      sh.down.Load(),
		Hits:      append([]int64(nil), sh.hits...),
		Misses:    append([]int64(nil), sh.misses...),
		Evictions: append([]int64(nil), sh.evictions...),
		Err:       sh.failed,
	}
	if sh.wal != nil {
		snap.Seg = sh.wal.segIndex
	}
	if withLog {
		// The shard may append past the views' ends but never writes
		// inside them.
		snap.tail = append([][]byte(nil), sh.log.chunks...)
	}
	if withMRC && sh.sampler != nil {
		snap.MRC = sh.sampler.Snapshot()
	}
	return snap
}
