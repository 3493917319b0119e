package cached

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Counters is one side (live or replay) of a verify report: per-tenant
// accounting plus totals. Slices have length Config.Tenants.
type Counters struct {
	Requests  []int64 `json:"requests"`
	Hits      []int64 `json:"hits"`
	Misses    []int64 `json:"misses"`
	Evictions []int64 `json:"evictions"`

	TotalHits      int64 `json:"total_hits"`
	TotalMisses    int64 `json:"total_misses"`
	TotalEvictions int64 `json:"total_evictions"`
}

// VerifyReport is the outcome of one live-vs-replay differential: every
// shard's request log replayed offline against the live counters. Clean
// means every per-tenant counter matched exactly; Diffs lists each mismatch.
type VerifyReport struct {
	Policy   string   `json:"policy"`
	K        int      `json:"k"`
	Shards   int      `json:"shards"`
	Requests int      `json:"requests"`
	Live     Counters `json:"live"`
	Replay   Counters `json:"replay"`
	Diffs    []string `json:"diffs,omitempty"`
	Clean    bool     `json:"clean"`
	// ReplayDur is the wall time from the snapshots to the summed replay
	// counters: streaming every shard's log, the per-entry checks and the
	// replay engines, in every mode.
	ReplayDur time.Duration `json:"replay_ns"`
}

// Verify snapshots every shard (on a batch boundary — safe under live
// traffic), replays each shard's complete log — its sealed WAL segments,
// then the in-memory tail — through a fresh engine of the shard's own
// kind, one goroutine per shard, and diffs the summed per-tenant counters
// exactly against the live ones.
//
// No global order is rebuilt, because the model needs none: shard s only
// ever assigns page ids ≡ s (mod n) and serves them at capacity
// sim.ShardShare(k, n, s), so its log is an independent sub-history, and
// the objective Σ f_i(misses_i) is separable per tenant, so per-shard
// counters add up exactly. Any nonzero diff is a bug in the live path (or
// the simulator), never an artifact of concurrency: per-shard logs are the
// ground truth of what each single-writer engine saw, in order.
func (s *Service) Verify(ctx context.Context) (*VerifyReport, error) {
	snaps := s.snapshotAll(true, false)
	for _, snap := range snaps {
		if snap.Err != nil {
			return nil, fmt.Errorf("cached: shard %d failed, log unreliable: %w", snap.Shard, snap.Err)
		}
	}
	start := time.Now()
	replays := make([]*ShardSnapshot, len(snaps))
	err := forEachShard(len(snaps), func(i int) (err error) {
		replays[i], err = s.replayShard(ctx, snaps[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	tenants := s.cfg.Tenants
	rep := &VerifyReport{
		Policy: s.policyName,
		K:      s.cfg.K,
		Shards: len(snaps),
		Live:   sumCounters(snaps, tenants),
		Replay: sumCounters(replays, tenants),
	}
	rep.ReplayDur = time.Since(start)
	rep.Requests = int(rep.Replay.TotalHits + rep.Replay.TotalMisses)
	rep.Diffs = diffCounters(rep.Live, rep.Replay, tenants)
	rep.Clean = len(rep.Diffs) == 0
	return rep, nil
}

// errReplayPanic marks the error a panic in a shard's replay became.
var errReplayPanic = errors.New("replay panicked")

// forEachShard runs f(i) for shards 0..n-1, one goroutine each, and joins
// their errors once all have finished. f runs off its caller's goroutine,
// so a panic in it must come back as an error naming the shard, wrapping
// errReplayPanic, not take the process down.
func forEachShard(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("cached: shard %d: %w: %v", i, errReplayPanic, p)
				}
			}()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayShard replays one shard's complete log — its sealed WAL segments,
// streamed from disk (immutable once rotated, so safe under live traffic),
// then the snapshot's view of the in-memory tail, read where it lies — and
// returns the per-tenant counters it reproduces, in snapshot form. The log
// reader validates every frame as it goes, and the replayer feeds the engine
// the live shard ran: quotaLRU in partition mode (quota control entries
// re-applied at their logged positions), the batched dense engine for a
// sim.DensePolicy (over a trace.Dense view of the log), and sim's map step
// for any other policy (which New allows only with one shard), the latter
// two at the shard's capacity share. The context is checked on entry and
// about every 65,536 entries, and by the dense engine as it runs.
func (s *Service) replayShard(ctx context.Context, snap *ShardSnapshot) (*ShardSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cached: verify aborted: %w", err)
	}
	id, n, tenants := snap.Shard, len(s.shards), s.cfg.Tenants
	k := sim.ShardShare(s.cfg.K, n, id)
	p := &replayer{ctx: ctx, id: id, n: n, r: &ShardSnapshot{Shard: id, Hits: make([]int64, tenants),
		Misses: make([]int64, tenants), Evictions: make([]int64, tenants)}}
	entries := snap.LogStart + snap.LogLen
	if s.cfg.Quotas != nil {
		p.q = newQuotaLRU(localQuotas(s.cfg.Quotas, n, id), n, id)
	} else {
		pol := s.cfg.NewPolicy()
		if dp, ok := pol.(sim.DensePolicy); ok {
			p.dense = dp
			p.slots = make([]int32, 0, entries)
		} else {
			p.mc = sim.NewMapCache(pol, k)
		}
	}
	fail := func(err error) (*ShardSnapshot, error) {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cached: verify aborted: %w", ctx.Err())
		}
		return nil, fmt.Errorf("cached: shard %d: %w", id, err)
	}
	r := s.newLogReader(id)
	if snap.Seg > 0 {
		if err := r.sealed(s.walCfg.FS, shardDirName(s.walCfg.Dir, id), snap.Seg, p); err != nil {
			return fail(err)
		}
	}
	if err := r.tail(snap.tail, p); err != nil {
		return fail(err)
	}
	if r.entries != entries {
		return fail(fmt.Errorf("log holds %d entries, the snapshot %d", r.entries, entries))
	}
	if p.dense != nil {
		// The dense view indexes pages by residue-class slot (page−id)/n, the
		// record index the live core.Open uses; the reader collected each
		// slot's owner.
		d := &trace.Dense{Pages: make([]trace.PageID, len(r.owners)), Owners: r.owners, Reqs: p.slots, Tenants: tenants}
		for j := range d.Pages {
			d.Pages[j] = trace.PageID(id + j*n)
		}
		res, err := sim.RunDense(ctx, d, p.dense, sim.Config{K: k})
		if err != nil {
			return fail(fmt.Errorf("replaying request log: %w", err))
		}
		for t := range p.r.Hits {
			p.r.Hits[t] -= res.Misses[t]
		}
		p.r.Misses, p.r.Evictions = res.Misses, res.Evictions
	}
	return p.r, nil
}

// replayer is Verify's logVisitor: it steps one shard's log through a fresh
// engine of the shard's kind, exactly one of q, dense and mc, and counts
// into r.
type replayer struct {
	ctx   context.Context
	id, n int
	q     *quotaLRU
	dense sim.DensePolicy
	mc    *sim.MapCache
	// slots collects the requests for the dense engine, which runs once
	// the whole log is read.
	slots []int32
	i     int // the map engine's step: requests seen
	// tick counts down the entries to the next context check.
	tick int
	r    *ShardSnapshot
}

func (p *replayer) page(int, trace.Tenant, []byte) error { return nil }

func (p *replayer) requests(_ int64, slots []int32, owners []trace.Tenant) error {
	if p.tick -= len(slots); p.tick < 0 {
		p.tick = 1 << 16
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	switch {
	case p.dense != nil:
		// Hits holds the tenant's requests until the engine's misses are
		// subtracted.
		for _, slot := range slots {
			p.r.Hits[owners[slot]]++
		}
		p.slots = append(p.slots, slots...)
	case p.q != nil:
		for _, slot := range slots {
			t := owners[slot]
			hit, evicted := p.q.Access(t, trace.PageID(p.id+int(slot)*p.n))
			p.r.count(t, hit, evicted, t)
		}
	default:
		for _, slot := range slots {
			t := owners[slot]
			hit, _, owner, err := p.mc.Access(p.i, trace.Request{Page: trace.PageID(p.id + int(slot)*p.n), Tenant: t})
			if err != nil {
				return fmt.Errorf("replaying request log: %w", err)
			}
			p.r.count(t, hit, owner >= 0, owner)
			p.i++
		}
	}
	return nil
}

func (p *replayer) quotas(_ int64, q []int) error {
	for t, ev := range p.q.SetQuotas(localQuotas(q, p.n, p.id)) {
		p.r.Evictions[t] += int64(ev)
	}
	return nil
}

// count records one replayed request of tenant t: a hit, or a miss that
// evicted one of owner's pages when evicted is set.
func (r *ShardSnapshot) count(t trace.Tenant, hit, evicted bool, owner trace.Tenant) {
	if hit {
		r.Hits[t]++
		return
	}
	r.Misses[t]++
	if evicted {
		r.Evictions[owner]++
	}
}

// sumCounters sums per-shard counters, live or replayed; a tenant's requests
// are its hits plus its misses.
func sumCounters(snaps []*ShardSnapshot, tenants int) Counters {
	c := Counters{
		Requests:  make([]int64, tenants),
		Hits:      make([]int64, tenants),
		Misses:    make([]int64, tenants),
		Evictions: make([]int64, tenants),
	}
	for _, snap := range snaps {
		for t := 0; t < tenants; t++ {
			c.Hits[t] += snap.Hits[t]
			c.Misses[t] += snap.Misses[t]
			c.Evictions[t] += snap.Evictions[t]
			c.Requests[t] += snap.Hits[t] + snap.Misses[t]
		}
	}
	c.total()
	return c
}

func (c *Counters) total() {
	c.TotalHits, c.TotalMisses, c.TotalEvictions = 0, 0, 0
	for t := range c.Hits {
		c.TotalHits += c.Hits[t]
		c.TotalMisses += c.Misses[t]
		c.TotalEvictions += c.Evictions[t]
	}
}

// diffCounters reports every per-tenant mismatch between live and replay.
func diffCounters(live, replay Counters, tenants int) []string {
	var diffs []string
	add := func(t int, what string, l, r int64) {
		if l != r {
			diffs = append(diffs, fmt.Sprintf("tenant %d: %s live=%d replay=%d", t, what, l, r))
		}
	}
	for t := 0; t < tenants; t++ {
		add(t, "requests", live.Requests[t], replay.Requests[t])
		add(t, "hits", live.Hits[t], replay.Hits[t])
		add(t, "misses", live.Misses[t], replay.Misses[t])
		add(t, "evictions", live.Evictions[t], replay.Evictions[t])
	}
	return diffs
}
