package cached

import (
	"fmt"
	"path"
	"time"

	"convexcache/internal/fault"
)

// This file is startup recovery: what rebuild after a panic does, run on
// every shard at once. Each shard replays its whole log — every WAL
// segment, in chain order — through its own engine (replay, shard.go) and
// truncates a torn tail at the first bad CRC (final segment only — a tear
// anywhere earlier would silently drop admitted requests and is refused
// loudly); then the global sequence counter is rederived from the
// per-shard maxima. Because the engine is a deterministic function of the
// log, the recovered shard is bit-identical to the shard that wrote the
// log — check.DiffRecovery proves exactly that.

// RecoveryReport summarizes a startup recovery (Service.Recovery).
type RecoveryReport struct {
	// Shards is the shard count recovered.
	Shards int `json:"shards"`
	// Entries is the total logical log entries replayed; Requests excludes
	// quota-control entries.
	Entries  int64 `json:"entries"`
	Requests int64 `json:"requests"`
	// LastSeq is the restored global sequence counter.
	LastSeq int64 `json:"last_seq"`
	// Truncations counts torn tails cut at a frame boundary.
	Truncations int `json:"truncations"`
}

// recoverShards opens every shard's WAL directory, one goroutine per shard
// (forEachShard): an empty directory gets a fresh segment, any other is
// recovered. It sums the shards' reports once all have finished. The shards
// are fresh from newShard and their loops have not started, so each
// goroutine owns its shard outright. On failure New closes the segments the
// shards opened.
func (s *Service) recoverShards() (*RecoveryReport, error) {
	reps := make([]RecoveryReport, len(s.shards))
	if err := forEachShard(len(s.shards), func(i int) error { return s.shards[i].recoverWAL(&reps[i]) }); err != nil {
		return nil, err
	}
	rep := &RecoveryReport{Shards: len(s.shards)}
	for _, r := range reps {
		rep.Entries += r.Entries
		rep.Requests += r.Requests
		rep.Truncations += r.Truncations
		rep.LastSeq = max(rep.LastSeq, r.LastSeq)
	}
	return rep, nil
}

// recoverWAL restores the shard from its WAL directory into rep. An empty
// directory just opens a fresh segment.
func (sh *shard) recoverWAL(rep *RecoveryReport) error {
	w := sh.wal
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return fmt.Errorf("cached: shard %d: list wal segments: %w", sh.id, err)
	}
	if len(segs) == 0 {
		return sh.openSegment(0)
	}
	if err := sh.replaySegments(segs, rep); err != nil {
		return fmt.Errorf("cached: shard %d: recovery failed: %w", sh.id, err)
	}
	return nil
}

// replaySegments replays every segment in chain order through the log
// reader and the shard's own engine: the sealed ones as rebuild and Verify
// read them (any damage, validation failure or chain gap is a hard error),
// then the final one, which may end in a torn tail, truncated at the last
// valid frame, and whose frames become the in-memory tail.
func (sh *shard) replaySegments(segs []int, rep *RecoveryReport) error {
	for i, idx := range segs {
		if idx != i {
			return fmt.Errorf("wal segment chain broken: found segment %d at position %d", idx, i)
		}
	}
	w, last := sh.wal, len(segs)-1
	r, p := sh.svc.newLogReader(sh.id), newReplay(sh)
	if err := r.sealed(w.fs, w.dir, last, p); err != nil {
		return err
	}
	tailStart := r.entries
	name := path.Join(w.dir, segName(last))
	rc, err := w.fs.Open(name)
	if err != nil {
		return err
	}
	var tail logTail
	size, torn, err := r.segment(rc, last, p, &tail)
	rc.Close()
	switch {
	case err != nil:
		return err
	case sh.steps != r.entries:
		return fmt.Errorf("replay produced %d entries, wal holds %d", sh.steps, r.entries)
	case sh.pages != len(r.owners):
		return fmt.Errorf("key table holds %d pages, the wal introduces %d", sh.pages, len(r.owners))
	}
	if torn {
		if err := truncateSegment(w.fs, name, size); err != nil {
			return fmt.Errorf("truncate torn tail of segment %d: %w", last, err)
		}
		rep.Truncations++
	}
	// Reopen the final segment for appending; when the tear consumed its
	// header, restart it at the running entry count with a fresh one.
	if r.header {
		if err := w.open(last); err != nil {
			return err
		}
		w.size = size
		sh.log, sh.logStart = tail, tailStart
		sh.log.unwritten(func([]byte) error { return nil }) // the segment holds it
	} else {
		sh.resetLog()
		if err := sh.openSegment(last); err != nil {
			return fmt.Errorf("rewrite header of segment %d: %w", last, err)
		}
	}
	w.lastSync = time.Now()
	rep.Entries = int64(r.entries)
	rep.Requests = sh.reqs
	rep.LastSeq = sh.lastSeq
	sh.publishMetrics()
	return nil
}

// truncateSegment cuts a torn tail at the last valid frame boundary.
func truncateSegment(fs fault.FS, name string, size int64) error {
	f, err := fs.Append(name)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcileQuotas runs after all shards recovered (partition mode): a crash
// mid-SetQuotas can leave shards on different quota vectors (each logs the
// switch at its own position, and durability can skew). The newest vector
// by control-entry sequence wins; lagging shards get a fresh control entry
// — the same semantics a live SetQuotas has. Runs before the shard loops
// start, so direct calls are safe.
func (s *Service) reconcileQuotas() error {
	var best *shard
	for _, sh := range s.shards {
		if sh.lastQuotaSeq > 0 && (best == nil || sh.lastQuotaSeq > best.lastQuotaSeq) {
			best = sh
		}
	}
	if best == nil {
		return nil // every shard is on Config.Quotas
	}
	vec := append([]int(nil), best.quotasNow...)
	for _, sh := range s.shards {
		if quotasEqual(sh.quotasNow, vec) {
			continue
		}
		// The live quota path: log the switch, step it, group-commit it.
		sh.applyQuotas(vec)
		sh.afterBatch(nil)
		if sh.failed != nil {
			return fmt.Errorf("persist quota reconcile: %w", sh.failed)
		}
	}
	s.quotas = append(s.quotas[:0], vec...)
	for t, g := range s.mQuota {
		g.Set(int64(vec[t]))
	}
	return nil
}

func quotasEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
