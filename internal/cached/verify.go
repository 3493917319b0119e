package cached

import (
	"context"
	"fmt"
	"path"
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

// VerifyReport is the outcome of one live-vs-replay differential: the merged
// request log replayed offline against the live counters. Clean means every
// per-tenant counter matched exactly; Diffs lists each mismatch.
type VerifyReport struct {
	Policy    string        `json:"policy"`
	K         int           `json:"k"`
	Shards    int           `json:"shards"`
	Requests  int           `json:"requests"`
	Live      Counters      `json:"live"`
	Replay    Counters      `json:"replay"`
	Diffs     []string      `json:"diffs,omitempty"`
	Clean     bool          `json:"clean"`
	ReplayDur time.Duration `json:"replay_ns"`
}

// Verify snapshots every shard (on a batch boundary — safe under live
// traffic), merges the per-shard request logs by global sequence number into
// one trace, replays it offline and diffs the per-tenant counters exactly.
//
// The replay uses the same partitioned model as the live service: with one
// shard it is sim.Run on the merged log; with n shards it is a
// sim.BuildShardsBy plan routed by page mod n — precisely the partition the
// live shards produced, since shard s only ever assigns page ids ≡ s (mod
// n). Any nonzero diff is a bug in the live path (or the simulator), never
// an artifact of concurrency: per-shard logs are the ground truth of what
// each single-writer engine saw, in order.
func (s *Service) Verify(ctx context.Context) (*VerifyReport, error) {
	snaps := s.snapshotAll(true, false)
	for _, snap := range snaps {
		if snap.Err != nil {
			return nil, fmt.Errorf("cached: shard %d failed, log unreliable: %w", snap.Shard, snap.Err)
		}
	}
	n := len(s.shards)
	rep := &VerifyReport{
		Policy: s.policyName,
		K:      s.cfg.K,
		Shards: n,
	}
	rep.Live = liveCounters(snaps, s.cfg.Tenants)
	if s.cfg.Quotas != nil {
		return s.verifyPartition(ctx, snaps, rep)
	}

	merged, err := s.mergeFullLogs(ctx, snaps)
	if err != nil {
		return nil, err
	}
	rep.Requests = len(merged)
	if len(merged) == 0 {
		rep.Replay = emptyCounters(s.cfg.Tenants)
		rep.Clean = true
		return rep, nil
	}

	b := trace.NewBuilder()
	for _, e := range merged {
		b.Add(e.Tenant, e.Page)
	}
	tr, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cached: rebuilding trace from request log: %w", err)
	}

	start := time.Now()
	var res sim.Result
	if n == 1 {
		res, err = sim.RunContext(ctx, tr, s.cfg.NewPolicy(), sim.Config{K: s.cfg.K})
	} else {
		var pl *sim.ShardPlan
		pl, err = sim.BuildShardsBy(tr, n, s.shardOfPage)
		if err == nil {
			res, err = pl.Run(ctx, s.cfg.NewPolicy, sim.Config{K: s.cfg.K, Engine: sim.EngineDense}, n)
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cached: verify aborted: %w", ctx.Err())
		}
		return nil, fmt.Errorf("cached: replaying request log: %w", err)
	}
	rep.ReplayDur = time.Since(start)

	rep.Replay = replayCounters(merged, res, s.cfg.Tenants)
	rep.Diffs = diffCounters(rep.Live, rep.Replay, s.cfg.Tenants)
	rep.Clean = len(rep.Diffs) == 0
	return rep, nil
}

// verifyPartition is the partition-mode differential: every page lives on
// exactly one shard and every tenant's quota is served per shard, so each
// shard's log replays independently through a fresh quotaLRU — the same
// deterministic engine the live loop ran, including quota-change control
// entries re-applied at their logged positions. The replay must reproduce
// the live counters bit for bit; no cross-shard merge is needed (the merge
// would only interleave independent sub-histories).
func (s *Service) verifyPartition(ctx context.Context, snaps []*ShardSnapshot, rep *VerifyReport) (*VerifyReport, error) {
	start := time.Now()
	replay := emptyCounters(s.cfg.Tenants)
	n := len(s.shards)
	for _, snap := range snaps {
		q := newQuotaLRU(localQuotas(s.cfg.Quotas, n, snap.Shard), n, snap.Shard)
		lastSeq := int64(-1)
		i := 0
		step := func(e LogEntry) error {
			if i%65536 == 0 && ctx.Err() != nil {
				return fmt.Errorf("cached: verify aborted: %w", ctx.Err())
			}
			if e.Seq <= lastSeq {
				return fmt.Errorf("cached: shard %d log entry %d: seq %d not increasing (prev %d)",
					snap.Shard, i, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			i++
			if e.Quotas != nil {
				for t, ev := range q.SetQuotas(localQuotas(e.Quotas, n, snap.Shard)) {
					replay.Evictions[t] += int64(ev)
				}
				return nil
			}
			rep.Requests++
			replay.Requests[e.Tenant]++
			hit, evicted := q.Access(e.Tenant, e.Page)
			if hit {
				replay.Hits[e.Tenant]++
			} else {
				replay.Misses[e.Tenant]++
			}
			if evicted {
				replay.Evictions[e.Tenant]++
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
	}
	replay.total()
	rep.ReplayDur = time.Since(start)
	rep.Replay = replay
	rep.Diffs = diffCounters(rep.Live, replay, s.cfg.Tenants)
	rep.Clean = len(rep.Diffs) == 0
	return rep, nil
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

// mergeFullLogs reconstructs every shard's complete log (sealed prefix from
// disk plus in-memory tail) and k-way merges them by sequence number.
func (s *Service) mergeFullLogs(ctx context.Context, snaps []*ShardSnapshot) ([]LogEntry, error) {
	full := make([]*ShardSnapshot, len(snaps))
	for i, snap := range snaps {
		if snap.LogStart == 0 {
			full[i] = snap
			continue
		}
		entries := make([]LogEntry, 0, snap.LogStart+len(snap.Log))
		if err := s.sealedEntries(ctx, snap, func(e LogEntry) error {
			entries = append(entries, e)
			return nil
		}); err != nil {
			return nil, err
		}
		entries = append(entries, snap.Log...)
		full[i] = &ShardSnapshot{Shard: snap.Shard, Log: entries}
	}
	return mergeLogs(full), nil
}

// mergeLogs k-way-merges the per-shard logs by sequence number. Each shard's
// log is strictly increasing in Seq (sequence numbers are drawn from the
// global atomic inside the single-writer loop), so the merge reconstructs a
// valid global admission order.
func mergeLogs(snaps []*ShardSnapshot) []LogEntry {
	total := 0
	for _, snap := range snaps {
		total += len(snap.Log)
	}
	merged := make([]LogEntry, 0, total)
	heads := make([]int, len(snaps))
	for len(merged) < total {
		best := -1
		for i, snap := range snaps {
			if heads[i] >= len(snap.Log) {
				continue
			}
			if best < 0 || snap.Log[heads[i]].Seq < snaps[best].Log[heads[best]].Seq {
				best = i
			}
		}
		merged = append(merged, snaps[best].Log[heads[best]])
		heads[best]++
	}
	return merged
}

func emptyCounters(tenants int) Counters {
	return Counters{
		Requests:  make([]int64, tenants),
		Hits:      make([]int64, tenants),
		Misses:    make([]int64, tenants),
		Evictions: make([]int64, tenants),
	}
}

// liveCounters sums the per-shard snapshots.
func liveCounters(snaps []*ShardSnapshot, tenants int) Counters {
	c := emptyCounters(tenants)
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

// replayCounters shapes a sim.Result into Counters. The simulator reports
// per-tenant misses and evictions plus total hits; per-tenant hits follow as
// requests − misses. Result slices are sized by the log's tenant universe,
// which may be narrower than the configured one if some tenants never sent
// a request — the tail stays zero.
func replayCounters(merged []LogEntry, res sim.Result, tenants int) Counters {
	c := emptyCounters(tenants)
	for _, e := range merged {
		c.Requests[e.Tenant]++
	}
	for t, m := range res.Misses {
		c.Misses[t] = m
		c.Hits[t] = c.Requests[t] - m
	}
	for t, ev := range res.Evictions {
		c.Evictions[t] = ev
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
