package cached

import (
	"context"
	"errors"
	"fmt"
	"path"
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
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i, snap := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A replay runs off the caller's goroutine, so its panic must
			// come back as an error, not take the serving process down.
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("cached: shard %d: replay panicked: %v", snap.Shard, p)
				}
			}()
			replays[i], errs[i] = s.replayShard(ctx, snap)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
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

// replayShard replays one shard's complete log and returns the per-tenant
// counters it reproduces, in snapshot form. One pass checks every entry —
// sequence numbers strictly increasing, the page in the shard's residue
// class, the tenant in range, one owner per page — and feeds the engine
// the live shard ran: quotaLRU in partition mode (quota control entries
// re-applied at their logged positions), the batched dense engine for a
// sim.DensePolicy (over a trace.Dense view of the log), and sim's map step
// for any other policy (which New allows only with one shard), the latter
// two at the shard's capacity share. The context is checked on entry, per
// sealed segment and every 65,536 entries, and by the dense engine as it
// runs.
func (s *Service) replayShard(ctx context.Context, snap *ShardSnapshot) (*ShardSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cached: verify aborted: %w", err)
	}
	id, n, tenants := snap.Shard, len(s.shards), s.cfg.Tenants
	k := sim.ShardShare(s.cfg.K, n, id)
	r := &ShardSnapshot{Shard: id, Hits: make([]int64, tenants),
		Misses: make([]int64, tenants), Evictions: make([]int64, tenants)}
	entries := snap.LogStart + len(snap.Log)
	var (
		q     *quotaLRU
		dense sim.DensePolicy
		mc    *sim.MapCache
	)
	if s.cfg.Quotas != nil {
		q = newQuotaLRU(localQuotas(s.cfg.Quotas, n, id), n, id)
	} else {
		p := s.cfg.NewPolicy()
		if dp, ok := p.(sim.DensePolicy); ok {
			dense = dp
		} else {
			mc = sim.NewMapCache(p, k)
		}
	}
	// d is the shard's log as a dense view indexed by residue-class slot
	// (page−id)/n, the record index the live core.Open uses; Owners[slot]
	// is -1 until the slot's page first appears. The shard's interned-page
	// count sizes the tables; requests are only collected when the dense
	// engine replays them.
	d := &trace.Dense{
		Pages:   make([]trace.PageID, 0, snap.Pages),
		Owners:  make([]trace.Tenant, 0, snap.Pages),
		Tenants: tenants,
	}
	if dense != nil {
		d.Reqs = make([]int32, 0, entries)
	}
	lastSeq := int64(-1)
	next := 0 // index of the next log entry
	step := func(e LogEntry) error {
		i := next
		next++
		if i%65536 == 0 && ctx.Err() != nil {
			return fmt.Errorf("cached: verify aborted: %w", ctx.Err())
		}
		if e.Seq <= lastSeq {
			return fmt.Errorf("cached: shard %d log entry %d: seq %d not increasing (prev %d)", id, i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Quotas != nil {
			if q == nil {
				return fmt.Errorf("cached: shard %d log entry %d: quota control entry outside partition mode", id, i)
			}
			for t, ev := range q.SetQuotas(localQuotas(e.Quotas, n, id)) {
				r.Evictions[t] += int64(ev)
			}
			return nil
		}
		if e.Tenant < 0 || int(e.Tenant) >= tenants {
			return fmt.Errorf("cached: shard %d log entry %d: tenant %d out of range [0,%d)", id, i, e.Tenant, tenants)
		}
		slot := int(e.Page) / n
		if e.Page < 0 || int(e.Page)-slot*n != id {
			return fmt.Errorf("cached: shard %d log entry %d: page %d outside residue class %d mod %d", id, i, e.Page, id, n)
		}
		// Slots are assigned in order as pages are first interned, so every
		// slot is below the log's entry count; a larger one is corruption
		// and must not size the tables.
		if slot >= entries {
			return fmt.Errorf("cached: shard %d log entry %d: page %d has slot %d past the log's %d entries", id, i, e.Page, slot, entries)
		}
		for j := len(d.Owners); j <= slot; j++ {
			d.Pages = append(d.Pages, trace.PageID(id+j*n))
			d.Owners = append(d.Owners, -1)
		}
		switch owner := d.Owners[slot]; {
		case owner < 0:
			d.Owners[slot] = e.Tenant
		case owner != e.Tenant:
			return fmt.Errorf("cached: shard %d log entry %d: page %d of tenant %d requested by tenant %d", id, i, e.Page, owner, e.Tenant)
		}
		switch {
		case dense != nil:
			// Hits holds the tenant's requests until the engine's misses
			// are subtracted below.
			r.Hits[e.Tenant]++
			d.Reqs = append(d.Reqs, int32(slot))
		case q != nil:
			hit, evicted := q.Access(e.Tenant, e.Page)
			r.count(e.Tenant, hit, evicted, e.Tenant)
		default:
			hit, _, owner, err := mc.Access(i, trace.Request{Page: e.Page, Tenant: e.Tenant})
			if err != nil {
				return fmt.Errorf("cached: shard %d: replaying request log: %w", id, err)
			}
			r.count(e.Tenant, hit, owner >= 0, owner)
		}
		return nil
	}
	// Sealed WAL segments stream from disk (they are immutable once
	// rotated, so this is safe under live traffic), then the in-memory
	// tail — together the shard's complete history.
	if err := s.sealedEntries(ctx, snap, step); err != nil {
		return nil, err
	}
	for _, e := range snap.Log {
		if err := step(e); err != nil {
			return nil, err
		}
	}
	if dense != nil {
		res, err := sim.RunDense(ctx, d, dense, sim.Config{K: k})
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("cached: verify aborted: %w", ctx.Err())
			}
			return nil, fmt.Errorf("cached: shard %d: replaying request log: %w", id, err)
		}
		for t := range r.Hits {
			r.Hits[t] -= res.Misses[t]
		}
		r.Misses, r.Evictions = res.Misses, res.Evictions
	}
	return r, nil
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

// sealedEntries streams the sealed (pre-tail) portion of one shard's log
// from its WAL segments, in order, invoking fn per entry. Segments below
// the snapshot's active index are sealed and immutable, so reading them
// concurrently with live writes is safe; the entry count must come out at
// exactly snap.LogStart or the history is incomplete.
func (s *Service) sealedEntries(ctx context.Context, snap *ShardSnapshot, fn func(LogEntry) error) error {
	if snap.LogStart == 0 {
		return nil
	}
	if s.walCfg == nil {
		return fmt.Errorf("cached: shard %d log starts at %d with no WAL to stream the prefix from", snap.Shard, snap.LogStart)
	}
	dir := shardDirName(s.walCfg.Dir, snap.Shard)
	count := 0
	for idx := 0; idx < snap.Seg; idx++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cached: verify aborted: %w", err)
		}
		rc, err := s.walCfg.FS.Open(path.Join(dir, segName(idx)))
		if err != nil {
			return fmt.Errorf("cached: shard %d: open sealed segment %d: %w", snap.Shard, idx, err)
		}
		_, torn, serr := scanSegment(rc, func(rec walRecord) error {
			if rec.kind == recHeader {
				return nil
			}
			if count >= snap.LogStart {
				return fmt.Errorf("cached: shard %d: sealed segments hold more than %d entries", snap.Shard, snap.LogStart)
			}
			count++
			return fn(rec.entry)
		})
		rc.Close()
		if serr != nil {
			return serr
		}
		if torn {
			return fmt.Errorf("cached: shard %d: sealed segment %d has a torn tail", snap.Shard, idx)
		}
	}
	if count != snap.LogStart {
		return fmt.Errorf("cached: shard %d: sealed segments hold %d entries, snapshot expects %d", snap.Shard, count, snap.LogStart)
	}
	return nil
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
