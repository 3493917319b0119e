// Package cached is the live cache service of the repo: it applies the
// paper's online algorithm (or any deterministic eviction policy) to live
// GET/PUT traffic instead of replaying a recorded trace.
//
// Architecture: N shards, each a single-writer goroutine owning a private
// engine — residency map, policy instance, per-tenant counters and an
// append-only request log. Requests are hash-routed to shards over per-shard
// mailbox channels, so the hot path takes no locks: the only shared state a
// request touches is its shard's mailbox and one global atomic sequence
// counter. Capacity K is split across shards with sim.ShardShare, the same
// split the offline sharded replay uses.
//
// The service is differentially checkable against the simulator: every shard
// logs the requests it admitted (in processing order, stamped with a global
// sequence number), and Verify replays each shard's log on a fresh engine of
// the shard's kind — the batched dense engine for ALG, at the shard's
// capacity share — one goroutine per shard, sums the per-tenant
// hit/miss/eviction counters and diffs them bit for bit. Because the convex
// objective Σ f_i(misses_i) is separable per tenant and every page lives on
// exactly one shard, the live partitioned cache and the offline per-shard
// replay must agree exactly — any divergence is a bug, not noise. See
// DESIGN.md §6h and §6m for the full correctness argument.
package cached

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"convexcache/internal/costfn"
	"convexcache/internal/mrclive"
	"convexcache/internal/obs"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Op is the request verb. GET and PUT have identical residency semantics
// (write-allocate: both demand the page resident, missing fetches it); they
// differ only in intent and metrics, so the request log needs no op column
// and replay is op-agnostic.
type Op byte

const (
	// OpGet reads a key.
	OpGet Op = 'G'
	// OpPut writes a key.
	OpPut Op = 'P'
)

// Request is one live cache operation.
type Request struct {
	// Op is the verb.
	Op Op
	// Tenant is the requesting tenant; must be in [0, Config.Tenants).
	Tenant trace.Tenant
	// Key is the tenant-scoped cache key (two tenants may use the same key
	// for distinct pages). Must be 1..MaxKeyLen bytes.
	Key []byte
}

// Result bytes of Apply, one per request.
const (
	// ResultHit: the key was resident.
	ResultHit = 'H'
	// ResultMiss: the key was fetched (and inserted, evicting if needed).
	ResultMiss = 'M'
	// ResultError: the request's shard is failed (see Service.Err).
	ResultError = 'E'
	// ResultShed: the request's shard is down (rebuilding after a panic) or
	// the service crashed mid-flight; the request was NOT applied and is
	// safe to retry (Apply returns ErrShardDown alongside).
	ResultShed = 'S'
)

// Config sizes the service.
type Config struct {
	// K is the total cache capacity in pages; split across shards with
	// sim.ShardShare. Must be >= Shards.
	K int
	// Shards is the shard count; <= 0 selects 1.
	Shards int
	// Tenants is the tenant universe size; requests for tenants outside
	// [0, Tenants) are rejected at ingress.
	Tenants int
	// NewPolicy builds a fresh eviction-policy instance. Instances must be
	// deterministic and mutually independent: each shard gets one at
	// startup, and Verify builds a fresh one per shard for its concurrent
	// replays. With Shards > 1 the policy must support the dense engine
	// (sim.DensePolicy), on which Verify replays each shard's log.
	NewPolicy func() sim.Policy
	// MailboxDepth is the per-shard channel buffer; <= 0 selects 64.
	MailboxDepth int
	// Registry receives the per-shard metrics; nil creates a private one.
	Registry *obs.Registry

	// Quotas switches the service to partition mode: each tenant gets a
	// dedicated LRU quota (shard-local share via sim.ShardShare, summing to
	// the global quota exactly), adjustable at runtime with SetQuotas. Must
	// have length Tenants and sum to K; NewPolicy is ignored. Nil keeps the
	// classic single-policy mode.
	Quotas []int
	// MRC enables the streaming per-tenant miss-ratio estimator: every
	// shard runs an mrclive.Sampler inline (Tenants and Scale are filled in
	// from this config). Nil disables estimation.
	MRC *mrclive.Config
	// Costs holds per-tenant convex cost functions for the capacity
	// controller's marginal weights; nil or short entries weight linearly.
	Costs []costfn.Func
	// ReserveFloor is the per-tenant page floor RebalanceOnce respects.
	ReserveFloor int

	// WAL enables crash-fault tolerance: every shard journals its log to
	// segment files and recovers bit-exactly on restart (see wal.go /
	// recover.go). Nil keeps the service purely in-memory.
	WAL *WALConfig
}

// ErrClosed is returned by Apply after Close.
var ErrClosed = errors.New("cached: service closed")

// ErrShardDown is returned by Apply when at least one request was shed
// because its shard is down (rebuilding after a panic) — a transient
// condition; the HTTP layer maps it to 503 + Retry-After.
var ErrShardDown = errors.New("cached: shard down, retry later")

// Service is the live sharded cache. Create with New, drive with Apply (or
// the HTTP handler), check with Verify, stop with Close.
type Service struct {
	cfg    Config
	reg    *obs.Registry
	shards []*shard
	// policyName labels verify reports in classic mode.
	policyName string
	// seq stamps every admitted request with a globally unique, per-shard
	// monotone sequence number; Verify checks that it strictly increases
	// along each shard's log.
	seq atomic.Int64

	// mu guards closed against concurrent Apply/Verify/Close; shard state
	// itself is single-writer and never locked. snapshotAll additionally
	// takes the write side as a sequencing barrier (see there).
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// quotaMu serializes SetQuotas dispatches and guards quotas, the
	// current global per-tenant quota vector (partition mode only).
	quotaMu sync.Mutex
	quotas  []int

	// walCfg is the normalized WAL configuration (nil when durability is
	// off); crashed simulates kill -9 (Crash): queued work is shed and the
	// final write and sync skipped. recovery summarizes the startup
	// recovery, if one ran.
	walCfg   *WALConfig
	crashed  atomic.Bool
	recovery *RecoveryReport

	// Per-tenant controller/estimator gauges (nil slices when disabled).
	mQuota, mWindowReqs, mMissRatioBP []*obs.Gauge
	mRebalances                       *obs.Counter
	// Robustness counters: shards taken down by panics, successful
	// restarts, shed requests, WAL errors.
	mShardDown, mShardRestarts, mShed, mWALErrors *obs.Counter
}

// New validates the configuration, starts the shard goroutines and returns
// the service.
func New(cfg Config) (*Service, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.K <= 0 {
		return nil, errors.New("cached: cache size must be positive")
	}
	if cfg.K < cfg.Shards {
		return nil, fmt.Errorf("cached: need k >= shards, got k=%d shards=%d", cfg.K, cfg.Shards)
	}
	if cfg.Tenants <= 0 {
		return nil, errors.New("cached: tenant count must be positive")
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 64
	}
	policyName := "quota-partition"
	if cfg.Quotas != nil {
		if len(cfg.Quotas) != cfg.Tenants {
			return nil, fmt.Errorf("cached: quota vector has %d entries for %d tenants", len(cfg.Quotas), cfg.Tenants)
		}
		sum := 0
		for t, q := range cfg.Quotas {
			if q < 0 {
				return nil, fmt.Errorf("cached: tenant %d has negative quota %d", t, q)
			}
			sum += q
		}
		if sum != cfg.K {
			return nil, fmt.Errorf("cached: quotas sum to %d, want K=%d", sum, cfg.K)
		}
		cfg.Quotas = append([]int(nil), cfg.Quotas...)
	} else {
		if cfg.NewPolicy == nil {
			return nil, errors.New("cached: NewPolicy is required")
		}
		probe := cfg.NewPolicy()
		if probe == nil {
			return nil, errors.New("cached: NewPolicy returned nil")
		}
		if _, offline := probe.(sim.OfflinePolicy); offline {
			return nil, fmt.Errorf("cached: policy %s needs the full trace in advance and cannot serve live traffic", probe.Name())
		}
		if cfg.Shards > 1 {
			if _, dense := probe.(sim.DensePolicy); !dense {
				return nil, fmt.Errorf("cached: policy %s does not support the dense engine required for sharded verify", probe.Name())
			}
		}
		policyName = probe.Name()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Service{cfg: cfg, reg: reg, shards: make([]*shard, cfg.Shards), policyName: policyName}
	s.mShardDown = reg.Counter("cached_shard_down_total")
	s.mShardRestarts = reg.Counter("cached_shard_restarts_total")
	s.mShed = reg.Counter("cached_shed_total")
	s.mWALErrors = reg.Counter("cached_wal_errors_total")
	if cfg.WAL != nil {
		w := *cfg.WAL
		if err := w.normalize(); err != nil {
			return nil, err
		}
		s.walCfg = &w
	}
	if cfg.Quotas != nil {
		s.quotas = append([]int(nil), cfg.Quotas...)
		s.mQuota = make([]*obs.Gauge, cfg.Tenants)
		for t := range s.mQuota {
			s.mQuota[t] = reg.Gauge(fmt.Sprintf(`cached_quota_pages{tenant="%d"}`, t))
			s.mQuota[t].Set(int64(s.quotas[t]))
		}
		s.mRebalances = reg.Counter("cached_rebalances_total")
	}
	if cfg.MRC != nil {
		s.mWindowReqs = make([]*obs.Gauge, cfg.Tenants)
		s.mMissRatioBP = make([]*obs.Gauge, cfg.Tenants)
		for t := range s.mWindowReqs {
			s.mWindowReqs[t] = reg.Gauge(fmt.Sprintf(`cached_mrc_window_requests{tenant="%d"}`, t))
			s.mMissRatioBP[t] = reg.Gauge(fmt.Sprintf(`cached_mrc_miss_ratio_bp{tenant="%d"}`, t))
		}
	}
	// Shards build in memory only, so a config error they find (a bad
	// estimator config, say) leaves nothing on disk.
	for i := range s.shards {
		sh, err := newShard(s, i, sim.ShardShare(cfg.K, cfg.Shards, i))
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	if w := s.walCfg; w != nil {
		var hasState bool
		if err := w.FS.MkdirAll(w.Dir); err != nil {
			return nil, fmt.Errorf("cached: create wal dir: %w", err)
		}
		for i := 0; i < cfg.Shards; i++ {
			dir := shardDirName(w.Dir, i)
			if err := w.FS.MkdirAll(dir); err != nil {
				return nil, fmt.Errorf("cached: create wal dir: %w", err)
			}
			segs, err := listSegments(w.FS, dir)
			if err != nil {
				return nil, fmt.Errorf("cached: list wal dir: %w", err)
			}
			if len(segs) > 0 {
				hasState = true
			}
		}
		if hasState && !w.Recover {
			return nil, fmt.Errorf("cached: wal directory %s holds existing state; enable Recover (-recover) to load it, or point at an empty directory", w.Dir)
		}
		rep, err := s.recoverShards()
		if err == nil {
			s.seq.Store(rep.LastSeq)
			if cfg.Quotas != nil {
				err = s.reconcileQuotas()
			}
		}
		if err != nil {
			// Close the segments the shards opened before the failure.
			for _, sh := range s.shards {
				if sh.wal.f != nil {
					sh.wal.f.Close()
				}
			}
			return nil, err
		}
		if hasState {
			s.recovery = rep
		}
	}
	for i := range s.shards {
		s.wg.Add(1)
		go s.shards[i].loop()
	}
	return s, nil
}

// Recovery reports the startup recovery that produced this service's
// initial state, or nil when it started fresh.
func (s *Service) Recovery() *RecoveryReport { return s.recovery }

// Crash simulates kill -9 for tests and chaos drills: queued and future
// work is shed, shard loops exit WITHOUT the final WAL write or fsync —
// whatever the OS already has is what recovery gets. Verify and Stats keep
// working on the frozen in-memory state, so tests can compare it against
// the recovered service.
func (s *Service) Crash() {
	s.crashed.Store(true)
	s.Close()
}

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// K returns the total capacity.
func (s *Service) K() int { return s.cfg.K }

// Registry returns the metrics registry the shards report into.
func (s *Service) Registry() *obs.Registry { return s.reg }

// route hashes (tenant, key) onto a shard: FNV-1a over the tenant id and the
// key bytes, finalized with a 64-bit mix so the low bits taken by the modulo
// are well distributed. Pure function — the same (tenant, key) always lands
// on the same shard, which is what makes per-shard page ownership stable.
func (s *Service) route(t trace.Tenant, key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(t)) * prime64
	for _, c := range key {
		h = (h ^ uint64(c)) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(s.shards)))
}

// Apply serves a batch of requests and returns one result byte per request
// (ResultHit/ResultMiss/ResultError), in request order. Requests are
// validated, grouped per shard (preserving batch order within each shard)
// and dispatched to the shard mailboxes; the call returns when every shard
// has processed its part. Safe for concurrent use.
func (s *Service) Apply(reqs []Request) ([]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	results := make([]byte, len(reqs))
	n := len(s.shards)
	buckets := make([][]int32, n)
	if n == 1 {
		// Single shard: routing is the identity, and down (rebuilding after
		// a panic — shed instead of queuing behind a replay that can take
		// seconds; the caller sees ErrShardDown and retries with backoff)
		// is checked once for the batch, keeping the loop to validation and
		// an index append.
		down := s.shards[0].down.Load()
		idxs := make([]int32, 0, len(reqs))
		for i := range reqs {
			if err := s.validate(i, &reqs[i]); err != nil {
				return nil, err
			}
			if down {
				results[i] = ResultShed
			} else {
				idxs = append(idxs, int32(i))
			}
		}
		buckets[0] = idxs
	} else {
		// Route in a first pass, then carve per-shard buckets out of one
		// backing array sized exactly — growing each bucket by append
		// reallocated several times per batch and dominated the allocation
		// profile of the live path.
		shardOf := make([]int32, len(reqs))
		counts := make([]int, n)
		for i := range reqs {
			r := &reqs[i]
			if err := s.validate(i, r); err != nil {
				return nil, err
			}
			sh := s.route(r.Tenant, r.Key)
			if s.shards[sh].down.Load() {
				results[i] = ResultShed
				shardOf[i] = -1
				continue
			}
			shardOf[i] = int32(sh)
			counts[sh]++
		}
		backing := make([]int32, 0, len(reqs))
		off := 0
		for sh, c := range counts {
			if c > 0 {
				buckets[sh] = backing[off : off : off+c]
				off += c
			}
		}
		for i := range reqs {
			if sh := shardOf[i]; sh >= 0 {
				buckets[sh] = append(buckets[sh], int32(i))
			}
		}
	}
	var wg sync.WaitGroup
	// The RLock pins closed=false while the sends happen: Close closes the
	// mailboxes only under the write lock, so a send here can never hit a
	// closed channel. A blocked send cannot deadlock Close either — shards
	// keep draining their mailboxes until Close (which is still waiting for
	// this RLock) closes them.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	for sh, b := range buckets {
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		s.shards[sh].in <- shardMsg{reqs: reqs, idxs: b, results: results, done: &wg}
	}
	s.mu.RUnlock()
	wg.Wait()
	shed := int64(0)
	failed := false
	for _, c := range results {
		switch c {
		case ResultError:
			failed = true
		case ResultShed:
			shed++
		}
	}
	if shed > 0 {
		s.mShed.Add(shed)
	}
	if failed {
		if err := s.Err(); err != nil {
			return results, err
		}
		return results, errors.New("cached: request failed")
	}
	if shed > 0 {
		return results, ErrShardDown
	}
	return results, nil
}

// validate checks request i of an Apply batch: a known op, a tenant in
// range and a key of 1..MaxKeyLen bytes, the lengths the log can replay.
func (s *Service) validate(i int, r *Request) error {
	switch {
	case r.Op != OpGet && r.Op != OpPut:
		return fmt.Errorf("cached: request %d: unknown op %q", i, r.Op)
	case r.Tenant < 0 || int(r.Tenant) >= s.cfg.Tenants:
		return fmt.Errorf("cached: request %d: tenant %d out of range [0,%d)", i, r.Tenant, s.cfg.Tenants)
	case len(r.Key) == 0:
		return fmt.Errorf("cached: request %d: empty key", i)
	case len(r.Key) > MaxKeyLen:
		return fmt.Errorf("cached: request %d: %d-byte key, longer than %d", i, len(r.Key), MaxKeyLen)
	}
	return nil
}

// Err returns the first shard failure (a policy contract violation), or nil.
// A failed shard answers ResultError to every subsequent request; the
// service stays up so the operator can inspect state and logs.
func (s *Service) Err() error {
	for _, snap := range s.snapshotAll(false, false) {
		if snap.Err != nil {
			return snap.Err
		}
	}
	return nil
}

// Close drains the shard mailboxes and stops the shard goroutines. Apply
// returns ErrClosed afterwards; Verify and Stats keep working on the frozen
// state (the shutdown hook of cmd/cached relies on that). Safe to call more
// than once.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, sh := range s.shards {
			close(sh.in)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// snapshotAll collects a consistent snapshot from every shard: through the
// mailboxes while serving (so each snapshot sits on a batch boundary), or by
// direct read once the shard goroutines have exited.
//
// The live path takes the WRITE lock while enqueuing the snapshot messages.
// That is the sequencing barrier that makes a multi-shard snapshot atomic
// with respect to in-flight Apply calls: Apply holds the read lock across
// ALL of its per-shard mailbox sends, so under the write lock every
// concurrent batch is either fully enqueued ahead of the snapshot message
// in every shard's mailbox, or fully behind it in every shard's mailbox.
// Without the exclusive section a batch could land before the snapshot on
// one shard and after it on another, and a stats read racing a batch would
// report hits+misses ≠ requests for that batch's tenant. The lock covers
// only the enqueues — the snapshots themselves are produced by the shard
// loops afterwards, and mailbox sends cannot deadlock because shards drain
// independently of the service lock.
func (s *Service) snapshotAll(withLog, withMRC bool) []*ShardSnapshot {
	s.mu.Lock()
	if !s.closed {
		chs := make([]chan *ShardSnapshot, len(s.shards))
		for i, sh := range s.shards {
			chs[i] = make(chan *ShardSnapshot, 1)
			sh.in <- shardMsg{snap: chs[i], withLog: withLog, withMRC: withMRC}
		}
		s.mu.Unlock()
		out := make([]*ShardSnapshot, len(s.shards))
		for i := range chs {
			out[i] = <-chs[i]
		}
		return out
	}
	s.mu.Unlock()
	// Closed: wg.Wait establishes happens-before with every shard loop
	// exit, after which the single-writer state is safe to read directly.
	s.wg.Wait()
	out := make([]*ShardSnapshot, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.snapshot(withLog, withMRC)
	}
	return out
}

// TenantStats is the per-tenant slice of a Stats report.
type TenantStats struct {
	Tenant    int   `json:"tenant"`
	Requests  int64 `json:"requests"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// ShardStats is the per-shard slice of a Stats report.
type ShardStats struct {
	Shard     int   `json:"shard"`
	K         int   `json:"k"`
	Requests  int64 `json:"requests"`
	Occupancy int   `json:"occupancy"`
	// LogStart is the sealed (on-disk) log prefix length; LogLen the
	// in-memory tail. LogStart+LogLen is the full history.
	LogStart int `json:"log_start,omitempty"`
	LogLen   int `json:"log_len"`
	// Seg is the active WAL segment index (0 without a WAL).
	Seg    int  `json:"wal_segment,omitempty"`
	Pages  int  `json:"pages"`
	Down   bool `json:"down,omitempty"`
	Failed bool `json:"failed,omitempty"`
}

// Stats is the live accounting of the service.
type Stats struct {
	Requests  int64         `json:"requests"`
	Hits      int64         `json:"hits"`
	Misses    int64         `json:"misses"`
	Evictions int64         `json:"evictions"`
	PerTenant []TenantStats `json:"per_tenant"`
	Shards    []ShardStats  `json:"shards"`
	// Quotas is the current global per-tenant quota vector; nil outside
	// partition mode.
	Quotas []int `json:"quotas,omitempty"`
}

// Stats aggregates a consistent per-shard snapshot into the live counters.
func (s *Service) Stats() Stats {
	snaps := s.snapshotAll(false, false)
	st := Stats{PerTenant: make([]TenantStats, s.cfg.Tenants), Quotas: s.Quotas()}
	for i := range st.PerTenant {
		st.PerTenant[i].Tenant = i
	}
	for _, snap := range snaps {
		st.Shards = append(st.Shards, ShardStats{
			Shard:     snap.Shard,
			K:         snap.K,
			Requests:  snap.Requests,
			Occupancy: snap.Occupancy,
			LogStart:  snap.LogStart,
			LogLen:    snap.LogLen,
			Seg:       snap.Seg,
			Pages:     snap.Pages,
			Down:      snap.Down,
			Failed:    snap.Err != nil,
		})
		for t := 0; t < s.cfg.Tenants; t++ {
			st.PerTenant[t].Hits += snap.Hits[t]
			st.PerTenant[t].Misses += snap.Misses[t]
			st.PerTenant[t].Evictions += snap.Evictions[t]
			st.PerTenant[t].Requests += snap.Hits[t] + snap.Misses[t]
		}
	}
	for _, ts := range st.PerTenant {
		st.Requests += ts.Requests
		st.Hits += ts.Hits
		st.Misses += ts.Misses
		st.Evictions += ts.Evictions
	}
	return st
}

// Quotas returns the current global per-tenant quota vector, or nil outside
// partition mode.
func (s *Service) Quotas() []int {
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	if s.quotas == nil {
		return nil
	}
	return append([]int(nil), s.quotas...)
}

// SetQuotas installs a new global quota vector (partition mode only): each
// shard receives a control message, logs it at its own sequence position
// and re-derives its local shares, trimming shrinking tenants. The call
// returns once every shard has applied the change. Quota installation is
// not atomic across shards — each shard switches at its own log position —
// but per-shard replay exactness is unaffected, because each shard logs
// exactly where it switched.
func (s *Service) SetQuotas(quotas []int) error {
	if s.cfg.Quotas == nil {
		return errors.New("cached: SetQuotas requires partition mode (Config.Quotas)")
	}
	if len(quotas) != s.cfg.Tenants {
		return fmt.Errorf("cached: quota vector has %d entries for %d tenants", len(quotas), s.cfg.Tenants)
	}
	sum := 0
	for t, q := range quotas {
		if q < 0 {
			return fmt.Errorf("cached: tenant %d has negative quota %d", t, q)
		}
		sum += q
	}
	if sum != s.cfg.K {
		return fmt.Errorf("cached: quotas sum to %d, want K=%d", sum, s.cfg.K)
	}
	// quotaMu serializes concurrent quota dispatches so every shard sees
	// the same sequence of control messages.
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	var wg sync.WaitGroup
	q := append([]int(nil), quotas...)
	for _, sh := range s.shards {
		wg.Add(1)
		sh.in <- shardMsg{quotas: q, quotasDone: &wg}
	}
	s.mu.RUnlock()
	wg.Wait()
	s.quotas = q
	for t, g := range s.mQuota {
		g.Set(int64(q[t]))
	}
	return nil
}

// MRCLive is the merged streaming estimator state: per-tenant window
// miss-ratio curves plus the quota vector they inform.
type MRCLive struct {
	// MaxSize is the largest estimated capacity; curves cover 1..MaxSize.
	MaxSize int `json:"max_size"`
	// Rate is the SHARDS sampling rate.
	Rate float64 `json:"rate"`
	// WindowRequests counts all tenants' window requests.
	WindowRequests int64 `json:"window_requests"`
	// Quotas is the current per-tenant split; nil outside partition mode.
	Quotas []int `json:"quotas,omitempty"`
	// Tenants holds one merged curve per tenant.
	Tenants []mrclive.TenantCurve `json:"tenants"`
}

// MRCLive snapshots every shard's sampler on a batch boundary and merges
// the windows into per-tenant curves (the /v1/mrc/live payload). Also
// refreshes the estimator gauges: window requests and the predicted miss
// ratio at each tenant's current capacity share.
func (s *Service) MRCLive() (*MRCLive, error) {
	if s.cfg.MRC == nil {
		return nil, errors.New("cached: MRC estimator not configured")
	}
	mc := s.shards[0].sampler.Config()
	snaps := s.snapshotAll(false, true)
	wins := make([][]mrclive.TenantWindow, 0, len(snaps))
	for _, snap := range snaps {
		if snap.MRC != nil {
			wins = append(wins, snap.MRC)
		}
	}
	out := &MRCLive{
		MaxSize: mc.MaxSize,
		Rate:    mc.Rate,
		Quotas:  s.Quotas(),
		Tenants: mrclive.Merge(wins, s.cfg.Tenants, mc.MaxSize, mc.Rate, mc.Scale),
	}
	for t := range out.Tenants {
		out.WindowRequests += out.Tenants[t].Requests
	}
	if s.mWindowReqs != nil {
		for t, c := range out.Tenants {
			share := s.cfg.K / s.cfg.Tenants
			if out.Quotas != nil {
				share = out.Quotas[t]
			}
			s.mWindowReqs[t].Set(c.Requests)
			s.mMissRatioBP[t].Set(int64(c.MissRatioAt(share) * 10000))
		}
	}
	return out, nil
}

// RebalanceOnce runs one controller step: merge the live curves, weight
// each tenant by its marginal cost at the current total misses, plan a new
// split with mrclive.Controller (floors from Config.ReserveFloor) and
// install it if it differs from the current one. Returns the (possibly
// unchanged) split and whether it changed.
func (s *Service) RebalanceOnce() ([]int, bool, error) {
	if s.cfg.Quotas == nil {
		return nil, false, errors.New("cached: rebalancing requires partition mode (Config.Quotas)")
	}
	live, err := s.MRCLive()
	if err != nil {
		return nil, false, err
	}
	st := s.Stats()
	totalMisses := make([]int64, s.cfg.Tenants)
	for t := range st.PerTenant {
		totalMisses[t] = st.PerTenant[t].Misses
	}
	cur := s.Quotas()
	ctl := mrclive.Controller{K: s.cfg.K, Costs: s.cfg.Costs, Floor: s.cfg.ReserveFloor}
	plan, err := ctl.Plan(cur, live.Tenants, totalMisses)
	if err != nil {
		return nil, false, err
	}
	changed := false
	for t := range plan {
		if plan[t] != cur[t] {
			changed = true
			break
		}
	}
	if !changed {
		return plan, false, nil
	}
	if err := s.SetQuotas(plan); err != nil {
		return nil, false, err
	}
	s.mRebalances.Inc()
	return plan, true, nil
}
