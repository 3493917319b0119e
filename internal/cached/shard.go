package cached

import (
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"convexcache/internal/core"
	"convexcache/internal/mrclive"
	"convexcache/internal/obs"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// LogEntry is one admitted request in a shard's deterministic request log.
// Seq is the global admission order (strictly increasing within a shard);
// Page is the shard-assigned page id; Tenant the requesting tenant. The op
// is deliberately absent — GET and PUT are both write-allocate, so residency
// evolution and therefore replay depend only on (page, tenant) order.
//
// Entries with a non-nil Quotas are control entries (partition mode only):
// they record the installation of a new global quota vector at this shard's
// sequence position, so the per-shard replay re-applies quota changes at
// exactly the step the live engine did. Control entries carry no page.
type LogEntry struct {
	Seq    int64
	Page   trace.PageID
	Tenant trace.Tenant
	Quotas []int
}

// logRec is one in-memory log entry in pointer-free form: 24 bytes, no
// Quotas slice. A []LogEntry is pointer-bearing through Quotas, which puts a
// write barrier on every live-path append and rescans the whole log on every
// GC mark; logRec keeps the hot array out of both.
type logRec struct {
	seq    int64
	page   trace.PageID
	tenant int32
	_      int32
}

// logChunkBits sizes entryLog's fixed chunks: 2^15 records (768 KiB each).
const logChunkBits = 15

// entryLog stores the active segment's entries as pointer-free records in
// fixed-size chunks. Chunking means appends never copy and growth produces
// no garbage — a flat slice either reallocates ~4x the final size over a
// segment's life (append's large-slice policy) or needs manual doubling
// copies. Quota control entries are rare (partition-mode control plane), so
// their vectors live in a small side map keyed by log index.
type entryLog struct {
	chunks [][]logRec
	n      int
	quotas map[int][]int
}

func (l *entryLog) len() int { return l.n }

func (l *entryLog) appendReq(seq int64, page trace.PageID, t trace.Tenant) {
	const mask = 1<<logChunkBits - 1
	ci := l.n >> logChunkBits
	if ci == len(l.chunks) {
		l.chunks = append(l.chunks, make([]logRec, 0, 1<<logChunkBits))
	}
	l.chunks[ci] = append(l.chunks[ci], logRec{seq: seq, page: page, tenant: int32(t)})
	l.n++
}

func (l *entryLog) appendQuotas(seq int64, quotas []int) {
	l.appendReq(seq, -1, -1)
	if l.quotas == nil {
		l.quotas = make(map[int][]int)
	}
	l.quotas[l.n-1] = quotas
}

func (l *entryLog) append(e LogEntry) {
	l.appendReq(e.Seq, e.Page, e.Tenant)
	if e.Quotas != nil {
		if l.quotas == nil {
			l.quotas = make(map[int][]int)
		}
		l.quotas[l.n-1] = e.Quotas
	}
}

func (l *entryLog) at(i int) LogEntry {
	r := &l.chunks[i>>logChunkBits][i&(1<<logChunkBits-1)]
	e := LogEntry{Seq: r.seq, Page: r.page, Tenant: trace.Tenant(r.tenant)}
	if l.quotas != nil {
		e.Quotas = l.quotas[i]
	}
	return e
}

// reset empties the log keeping the first chunk's capacity (segment
// rotation).
func (l *entryLog) reset() {
	if len(l.chunks) > 1 {
		l.chunks = l.chunks[:1]
	}
	if len(l.chunks) == 1 {
		l.chunks[0] = l.chunks[0][:0]
	}
	l.n = 0
	l.quotas = nil
}

// entries materializes the AoS view for snapshots and wire formats.
func (l *entryLog) entries() []LogEntry {
	out := make([]LogEntry, l.len())
	for i := range out {
		out[i] = l.at(i)
	}
	return out
}

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
	// Log is the shard's in-memory log tail (the active segment); nil unless
	// requested.
	Log []LogEntry
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
	// Shard s assigns ids from the residue class {s, s+n, s+2n, ...}
	// (nextPage starts at s, steps by n), so page ownership is recoverable
	// as page mod n at replay time.
	keys     []keyTable
	nextPage trace.PageID
	pages    int
	// log holds the entries of the active WAL segment only (the whole
	// history without a WAL); logStart is the logical index of the first
	// held entry, and steps = logStart + log.len() is the total logical
	// entry count — also the policy step counter.
	log      entryLog
	logStart int
	steps    int
	// lastSeq is the newest global sequence number this shard admitted;
	// lastQuotaSeq the newest quota-control entry's (for quota reconcile
	// after recovery). quotasNow is the global quota vector as of this
	// shard's log position (partition mode).
	lastSeq      int64
	lastQuotaSeq int64
	quotasNow    []int
	// lastCkpt is the steps value at the last checkpoint attempt.
	lastCkpt int
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

	mReqs, mHits, mMisses, mEvictions *obs.Counter
	mOccupancy, mLog, mMailbox        *obs.Gauge
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
		nextPage:  trace.PageID(id),
		hits:      make([]int64, svc.cfg.Tenants),
		misses:    make([]int64, svc.cfg.Tenants),
		evictions: make([]int64, svc.cfg.Tenants),

		mReqs:      svc.reg.Counter("cached_requests_total" + lbl),
		mHits:      svc.reg.Counter("cached_hits_total" + lbl),
		mMisses:    svc.reg.Counter("cached_misses_total" + lbl),
		mEvictions: svc.reg.Counter("cached_evictions_total" + lbl),
		mOccupancy: svc.reg.Gauge("cached_occupancy_pages" + lbl),
		mLog:       svc.reg.Gauge("cached_log_entries" + lbl),
		mMailbox:   svc.reg.Gauge("cached_shard_mailbox_depth" + lbl),
	}
	if err := sh.newEngine(); err != nil {
		return nil, err
	}
	if svc.cfg.MRC != nil {
		mc := *svc.cfg.MRC
		mc.Tenants = svc.cfg.Tenants
		mc.Scale = svc.cfg.Shards
		// Config was validated in New; a fresh sampler cannot fail here.
		sh.sampler, _ = mrclive.NewSampler(mc)
	}
	if svc.walCfg != nil {
		sh.wal = newShardWAL(svc.walCfg, id, svc.cfg.Shards)
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
// resume. A clean shutdown seals the WAL (final flush + checkpoint); a
// simulated kill -9 (Service.Crash) skips that on purpose.
func (sh *shard) loop() {
	defer sh.svc.wg.Done()
	for {
		if sh.serve() {
			if sh.wal != nil {
				if sh.failed == nil && !sh.svc.crashed.Load() {
					sh.sealWAL()
				} else if sh.wal.f != nil {
					// Crashed or failed: drop the handle without flushing —
					// buffered frames are lost exactly as a killed process
					// would lose them.
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

// serve drains the mailbox; returns true when the mailbox closed (shutdown)
// and false when a panic escaped the engine (the caller rebuilds).
func (sh *shard) serve() (closed bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicErr = fmt.Errorf("cached: shard %d panicked: %v", sh.id, r)
			sh.down.Store(true)
			sh.abortInflight()
		}
	}()
	for m := range sh.in {
		sh.handle(m)
	}
	return true
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
	if !sh.svc.crashed.Load() {
		sh.afterBatch(cur)
		sh.publishMetrics()
	}
	sh.cur = nil
	m.done.Done()
}

// appendRequest admits one request entry: in-memory log, WAL buffer (group
// commit — flushed in afterBatch), sequence bookkeeping. The scalar
// signature keeps a LogEntry (and its nil Quotas slice) off the hot path.
func (sh *shard) appendRequest(seq int64, page trace.PageID, t trace.Tenant, newKey []byte) {
	sh.log.appendReq(seq, page, t)
	sh.steps++
	sh.lastSeq = seq
	if sh.wal != nil {
		sh.wal.appendRequest(seq, page, t, newKey)
	}
}

// appendQuotaEntry admits one quota-control entry (partition mode).
func (sh *shard) appendQuotaEntry(seq int64, quotas []int) {
	sh.log.appendQuotas(seq, quotas)
	sh.steps++
	sh.lastSeq = seq
	sh.lastQuotaSeq = seq
	if sh.wal != nil {
		sh.wal.appendQuotas(seq, quotas)
	}
}

// afterBatch runs the durability work riding each mailbox batch: group
// commit (one write + fsync per policy), segment rotation (which bounds the
// in-memory log to the active segment) and periodic checkpoints. A WAL
// write failure fails the shard — the batch cannot be acknowledged as
// applied when its entries may not survive a restart.
func (sh *shard) afterBatch(cur *inflight) {
	if sh.wal == nil || sh.failed != nil {
		return
	}
	if err := sh.wal.flush(time.Now()); err != nil {
		sh.walFail(err, cur)
		return
	}
	if sh.wal.shouldRotate() {
		if err := sh.wal.rotate(sh.steps); err != nil {
			sh.walFail(err, cur)
			return
		}
		sh.logStart = sh.steps
		sh.log.reset()
	}
	if sh.wal.ckptEvery > 0 && sh.steps-sh.lastCkpt >= sh.wal.ckptEvery {
		// Advance lastCkpt even on failure so a broken disk is not hammered
		// every batch; the WAL still holds everything a checkpoint would.
		sh.lastCkpt = sh.steps
		if err := sh.writeCheckpoint(); err != nil {
			sh.svc.mWALErrors.Inc()
		}
	}
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

// sealWAL is the clean-shutdown path: final checkpoint (if the engine is
// checkpointable) plus flush/sync/close, so the next start recovers
// instantly and bit-exactly.
func (sh *shard) sealWAL() {
	if sh.wal.ckptEvery > 0 && sh.steps > sh.lastCkpt {
		if err := sh.writeCheckpoint(); err != nil {
			sh.svc.mWALErrors.Inc()
		}
	}
	if err := sh.wal.closeSync(); err != nil {
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
	seq := sh.svc.seq.Add(1)
	sh.appendQuotaEntry(seq, append([]int(nil), global...))
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

// apply runs one live request through the shard: key interning, log + WAL
// append under the batch-reserved sequence number seq, then the engine step.
// Metrics are deliberately absent — publishMetrics reconciles the registry
// from the shard counters at batch boundaries, keeping atomics off the
// request path.
func (sh *shard) apply(r *Request, seq int64) byte {
	if sh.failed != nil {
		return ResultError
	}
	kt := &sh.keys[r.Tenant]
	h, pre := hashKey(r.Key)
	page, seen := kt.lookup(h, pre, r.Key)
	var newKey []byte
	if !seen {
		page = sh.nextPage
		sh.nextPage += trace.PageID(len(sh.svc.shards))
		sh.pages++
		kt.insert(h, pre, r.Key, page)
		newKey = r.Key
	}
	sh.appendRequest(seq, page, r.Tenant, newKey)
	if sh.sampler != nil {
		sh.sampler.Observe(r.Tenant, page)
	}
	res, _ := sh.stepRequest(page, r.Tenant)
	return res
}

// stepRequest is the engine step for the already-logged request at logical
// index steps-1. It is the single function both the live path and
// recovery/rebuild replay run, which is what makes recovered state provably
// bit-identical. Returns the result byte and the eviction count (0 or 1).
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

// replayEntry re-applies one logged entry during recovery or rebuild. key,
// when non-nil, is the wire key carried by a first-appearance WAL record;
// entries replayed from memory pass nil (the key table survived). The
// engine mutations are exactly the live path's — same functions, same
// order.
func (sh *shard) replayEntry(e LogEntry, key []byte) error {
	if e.Quotas != nil {
		if sh.qlru == nil {
			return fmt.Errorf("cached: shard %d: quota control entry (seq %d) outside partition mode", sh.id, e.Seq)
		}
		sh.steps++
		sh.lastSeq = e.Seq
		sh.lastQuotaSeq = e.Seq
		sh.stepQuotas(e.Quotas)
		return nil
	}
	if key != nil {
		kt := &sh.keys[e.Tenant]
		h, pre := hashKey(key)
		if _, seen := kt.lookup(h, pre, key); !seen {
			kt.insert(h, pre, key, e.Page)
			sh.pages++
			if next := e.Page + trace.PageID(len(sh.svc.shards)); next > sh.nextPage {
				sh.nextPage = next
			}
		}
	}
	sh.steps++
	sh.lastSeq = e.Seq
	sh.stepRequest(e.Page, e.Tenant)
	return sh.failed
}

// resetEngine rebuilds a fresh engine and zeroes the replay-derived state
// (counters, step/sequence bookkeeping). Identity state — key table,
// nextPage, pages, logs — is left alone; rebuild relies on that.
func (sh *shard) resetEngine() {
	sh.failed = sh.newEngine()
	sh.reqs = 0
	for t := range sh.hits {
		sh.hits[t], sh.misses[t], sh.evictions[t] = 0, 0, 0
	}
	sh.steps, sh.lastSeq, sh.lastQuotaSeq = 0, 0, 0
}

// rebuild restores the shard after an engine panic by replaying its own
// history — sealed WAL segments from disk plus the in-memory tail — through
// a fresh engine. The key table, page allocator and in-memory log survive
// panics intact (they are plain data mutated before any engine call), so
// only the engine and counters are rederived. A second panic during the
// replay is deterministic and marks the shard permanently failed.
func (sh *shard) rebuild() {
	defer func() {
		if r := recover(); r != nil {
			sh.failed = fmt.Errorf("cached: shard %d: repeated panic during rebuild: %v (first: %v)", sh.id, r, sh.panicErr)
		}
	}()
	tail := sh.log
	logStart := sh.logStart
	sh.resetEngine()
	if sh.wal != nil && logStart > 0 {
		if err := sh.replaySealed(); err != nil {
			sh.failed = fmt.Errorf("cached: shard %d: rebuild from wal after panic (%v): %w", sh.id, sh.panicErr, err)
			return
		}
		if sh.steps != logStart {
			sh.failed = fmt.Errorf("cached: shard %d: sealed wal replay produced %d entries, in-memory tail starts at %d", sh.id, sh.steps, logStart)
			return
		}
	}
	for i := 0; i < tail.len(); i++ {
		if err := sh.replayEntry(tail.at(i), nil); err != nil {
			sh.failed = err
			return
		}
	}
}

// replaySealed streams every sealed segment (index < active) through
// replayEntry. Sealed segments are immutable and were validated at write or
// recovery time, so corruption here is a hard error, never a truncation.
func (sh *shard) replaySealed() error {
	w := sh.wal
	for idx := 0; idx < w.segIndex; idx++ {
		rc, err := w.fs.Open(path.Join(w.dir, segName(idx)))
		if err != nil {
			return err
		}
		_, torn, serr := scanSegment(rc, func(rec walRecord) error {
			if rec.kind == recHeader {
				return nil
			}
			return sh.replayEntry(rec.entry, rec.key)
		})
		rc.Close()
		if serr != nil {
			return fmt.Errorf("sealed segment %d: %w", idx, serr)
		}
		if torn {
			return fmt.Errorf("sealed segment %d has a torn tail", idx)
		}
	}
	return nil
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
	sh.mMailbox.Set(int64(len(sh.in)))
}

// snapshot copies the shard's accounting. Called from the loop goroutine
// while serving, or from snapshotAll after the loop has exited.
func (sh *shard) snapshot(withLog, withMRC bool) *ShardSnapshot {
	snap := &ShardSnapshot{
		Shard:     sh.id,
		K:         sh.k,
		Requests:  sh.reqs,
		Occupancy: sh.occupancy(),
		LogStart:  sh.logStart,
		LogLen:    sh.log.len(),
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
		snap.Log = sh.log.entries()
	}
	if withMRC && sh.sampler != nil {
		snap.MRC = sh.sampler.Snapshot()
	}
	return snap
}
