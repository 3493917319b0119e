package cached

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"time"

	"convexcache/internal/core"
	"convexcache/internal/fault"
	"convexcache/internal/trace"
)

// This file is startup recovery: load the newest valid checkpoint, replay
// the WAL segments after it through the verbatim shard step, truncate a torn
// tail at the first bad CRC (final segment only — a tear anywhere earlier
// would silently drop admitted requests and is refused loudly), and rederive
// the global sequence counter from the per-shard maxima. Because the shard
// step is a deterministic function of the log, the recovered shard is
// bit-identical to the shard that wrote the log — check.DiffRecovery proves
// exactly that.

// checkpoint is one durable shard snapshot: identity state (key table, page
// allocator), counters, and the engine image. Only engines with an exact
// serialization are checkpointed — the quota partition (quotaLRU dump) and
// the paper's algorithm (core.FastSnapshot); other policies recover by full
// WAL replay, which is always correct, just slower. The file is a single
// CRC frame around this JSON.
type checkpoint struct {
	Version int `json:"version"`
	Shard   int `json:"shard"`
	Shards  int `json:"shards"`
	K       int `json:"k"`
	Tenants int `json:"tenants"`
	// Entries is the logical log position the image covers: replay resumes
	// at entry Entries.
	Entries      int   `json:"entries"`
	LastSeq      int64 `json:"last_seq"`
	LastQuotaSeq int64 `json:"last_quota_seq,omitempty"`

	Requests  int64   `json:"requests"`
	Hits      []int64 `json:"hits"`
	Misses    []int64 `json:"misses"`
	Evictions []int64 `json:"evictions"`

	Pages int       `json:"pages"`
	Keys  []ckptKey `json:"keys"`

	// Engine is "quota" or "fast"; exactly one image field is set.
	Engine string `json:"engine"`
	// Fast is the classic-mode engine image; residency is rederived from it.
	Fast *core.FastSnapshot `json:"fast,omitempty"`
	// Quotas is the global quota vector as of Entries; QuotaPages each
	// tenant's resident pages MRU→LRU (partition mode).
	Quotas     []int     `json:"quotas,omitempty"`
	QuotaPages [][]int64 `json:"quota_pages,omitempty"`
}

type ckptKey struct {
	Tenant int    `json:"t"`
	Page   int64  `json:"p"`
	Key    string `json:"k"`
}

// RecoveryReport summarizes a startup recovery (Service.Recovery).
type RecoveryReport struct {
	// Shards is the shard count recovered.
	Shards int `json:"shards"`
	// Entries is the total logical log entries restored (checkpoint-covered
	// plus replayed); Requests excludes quota-control entries.
	Entries  int64 `json:"entries"`
	Requests int64 `json:"requests"`
	// Replayed counts the entries actually re-run through the engine (the
	// part not covered by checkpoints).
	Replayed int64 `json:"replayed"`
	// LastSeq is the restored global sequence counter.
	LastSeq int64 `json:"last_seq"`
	// Truncations counts torn tails cut at a frame boundary.
	Truncations int `json:"truncations"`
	// Checkpoints counts shards restored from a checkpoint image.
	Checkpoints int `json:"checkpoints"`
}

// buildCheckpoint captures the shard's current image, or nil when the
// engine has no exact serialization (generic policies replay instead).
func (sh *shard) buildCheckpoint() *checkpoint {
	ck := &checkpoint{
		Version:      walVersion,
		Shard:        sh.id,
		Shards:       sh.svc.cfg.Shards,
		K:            sh.k,
		Tenants:      sh.svc.cfg.Tenants,
		Entries:      sh.steps,
		LastSeq:      sh.lastSeq,
		LastQuotaSeq: sh.lastQuotaSeq,
		Requests:     sh.reqs,
		Hits:         append([]int64(nil), sh.hits...),
		Misses:       append([]int64(nil), sh.misses...),
		Evictions:    append([]int64(nil), sh.evictions...),
		Pages:        sh.pages,
	}
	switch {
	case sh.qlru != nil:
		ck.Engine = "quota"
		ck.Quotas = append([]int(nil), sh.quotasNow...)
		ck.QuotaPages = sh.qlru.dump()
	case sh.open != nil:
		snap := sh.open.Snapshot()
		ck.Engine = "fast"
		ck.Fast = &snap
	default:
		return nil
	}
	for t := range sh.keys {
		base := len(ck.Keys)
		sh.keys[t].each(func(k []byte, p trace.PageID) {
			ck.Keys = append(ck.Keys, ckptKey{Tenant: t, Page: int64(p), Key: string(k)})
		})
		keys := ck.Keys[base:]
		sort.Slice(keys, func(i, j int) bool { return keys[i].Page < keys[j].Page })
	}
	return ck
}

// writeCheckpoint durably stores the shard image: CRC-framed JSON to a temp
// file, fsync (per policy), rename into place, prune all but the two newest.
func (sh *shard) writeCheckpoint() error {
	ck := sh.buildCheckpoint()
	if ck == nil {
		return nil
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("cached: shard %d: encode checkpoint: %w", sh.id, err)
	}
	w := sh.wal
	final := path.Join(w.dir, ckptName(ck.Entries))
	tmp := final + ".tmp"
	_ = w.fs.Remove(tmp)
	f, err := w.fs.Append(tmp)
	if err != nil {
		return fmt.Errorf("cached: shard %d: open checkpoint: %w", sh.id, err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		f.Close()
		return fmt.Errorf("cached: shard %d: write checkpoint: %w", sh.id, err)
	}
	if w.fsync != FsyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("cached: shard %d: sync checkpoint: %w", sh.id, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cached: shard %d: close checkpoint: %w", sh.id, err)
	}
	if err := w.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("cached: shard %d: install checkpoint: %w", sh.id, err)
	}
	sh.svc.mCheckpoints.Inc()
	if cks, err := listCheckpoints(w.fs, w.dir); err == nil && len(cks) > 2 {
		for _, n := range cks[2:] {
			_ = w.fs.Remove(path.Join(w.dir, ckptName(n)))
		}
	}
	return nil
}

// loadCheckpoint reads and CRC-validates one checkpoint file: exactly one
// frame whose payload is the checkpoint JSON.
func (sh *shard) loadCheckpoint(name string) (*checkpoint, error) {
	rc, err := sh.wal.fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	payload, rest, ok := cutFrame(b)
	if err != nil || !ok || len(rest) != 0 {
		return nil, fmt.Errorf("checkpoint %s is not one intact frame (%v)", path.Base(name), err)
	}
	ck := &checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("checkpoint %s: decode: %w", path.Base(name), err)
	}
	return ck, nil
}

// installCheckpoint validates the image against the current configuration
// and installs it: counters, key table, engine state, bookkeeping. A
// mismatch (resized cluster, different engine) rejects the checkpoint — the
// caller falls back to an older one or to full replay.
func (sh *shard) installCheckpoint(ck *checkpoint) error {
	cfg := sh.svc.cfg
	switch {
	case ck.Version != walVersion:
		return fmt.Errorf("checkpoint version %d, want %d", ck.Version, walVersion)
	case ck.Shard != sh.id || ck.Shards != cfg.Shards:
		return fmt.Errorf("checkpoint is for shard %d/%d, this is shard %d/%d", ck.Shard, ck.Shards, sh.id, cfg.Shards)
	case ck.K != sh.k:
		return fmt.Errorf("checkpoint has shard capacity %d, config gives %d", ck.K, sh.k)
	case ck.Tenants != cfg.Tenants:
		return fmt.Errorf("checkpoint has %d tenants, config has %d", ck.Tenants, cfg.Tenants)
	case len(ck.Hits) != cfg.Tenants || len(ck.Misses) != cfg.Tenants || len(ck.Evictions) != cfg.Tenants:
		return errors.New("checkpoint counter vectors are missized")
	case ck.Entries < 0 || ck.Pages != len(ck.Keys):
		return fmt.Errorf("checkpoint claims %d pages but carries %d keys", ck.Pages, len(ck.Keys))
	}
	n := cfg.Shards
	for _, k := range ck.Keys {
		if k.Tenant < 0 || k.Tenant >= cfg.Tenants {
			return fmt.Errorf("checkpoint key for out-of-range tenant %d", k.Tenant)
		}
		if k.Page < 0 || int(k.Page%int64(n)) != sh.id || k.Page >= int64(sh.id+ck.Pages*n) {
			return fmt.Errorf("checkpoint key maps to page %d outside shard %d's allocation", k.Page, sh.id)
		}
		kt := &sh.keys[k.Tenant]
		kb := []byte(k.Key)
		h, pre := hashKey(kb)
		if _, dup := kt.lookup(h, pre, kb); dup {
			return fmt.Errorf("checkpoint has duplicate key for tenant %d", k.Tenant)
		}
		kt.insert(h, pre, kb, trace.PageID(k.Page))
	}
	switch ck.Engine {
	case "quota":
		if sh.qlru == nil {
			return errors.New("quota checkpoint but service is not in partition mode")
		}
		if len(ck.Quotas) != cfg.Tenants {
			return errors.New("checkpoint quota vector missized")
		}
		sh.quotasNow = append(sh.quotasNow[:0], ck.Quotas...)
		sh.qlru = newQuotaLRU(localQuotas(ck.Quotas, n, sh.id), n, sh.id)
		if err := sh.qlru.restore(ck.QuotaPages); err != nil {
			return fmt.Errorf("checkpoint quota image: %w", err)
		}
	case "fast":
		if sh.qlru != nil {
			return errors.New("fast checkpoint but service is in partition mode")
		}
		if ck.Fast == nil {
			return errors.New("fast checkpoint carries no engine image")
		}
		if sh.open == nil {
			return errors.New("fast checkpoint does not match the configured policy")
		}
		if err := sh.open.Restore(*ck.Fast); err != nil {
			return fmt.Errorf("checkpoint engine image: %w", err)
		}
	default:
		return fmt.Errorf("unknown checkpoint engine %q", ck.Engine)
	}
	sh.reqs = ck.Requests
	copy(sh.hits, ck.Hits)
	copy(sh.misses, ck.Misses)
	copy(sh.evictions, ck.Evictions)
	sh.pages = ck.Pages
	sh.steps = ck.Entries
	sh.lastSeq = ck.LastSeq
	sh.lastQuotaSeq = ck.LastQuotaSeq
	return nil
}

// recoverWAL restores the shard from its WAL directory. Checkpoints are
// tried newest first, falling back to older ones and finally to a full
// replay from entry 0 — a bad checkpoint can cost time, never correctness.
// An empty directory just opens a fresh segment.
func (sh *shard) recoverWAL(rep *RecoveryReport) error {
	w := sh.wal
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return fmt.Errorf("cached: shard %d: list wal segments: %w", sh.id, err)
	}
	if len(segs) == 0 {
		return sh.openSegment(0)
	}
	cks, err := listCheckpoints(w.fs, w.dir)
	if err != nil {
		return fmt.Errorf("cached: shard %d: list checkpoints: %w", sh.id, err)
	}
	var lastErr error
	for _, n := range append(cks, -1) {
		var ck *checkpoint
		if n >= 0 {
			ck, err = sh.loadCheckpoint(path.Join(w.dir, ckptName(n)))
			if err != nil {
				lastErr = err
				continue
			}
		}
		if err := sh.replaySegments(segs, ck, rep); err != nil {
			lastErr = err
			continue
		}
		if ck != nil {
			rep.Checkpoints++
		}
		return nil
	}
	return fmt.Errorf("cached: shard %d: recovery failed: %w", sh.id, lastErr)
}

// replaySegments is one recovery attempt: reset, install ck (may be nil =
// full replay), then read every segment in chain order through the log
// reader, re-running each entry past the checkpoint through the verbatim
// engine step. The final segment may end in a torn tail, which is truncated
// at the last valid frame, and its frames become the in-memory tail; any
// earlier damage, validation failure or chain gap is a hard error.
func (sh *shard) replaySegments(segs []int, ck *checkpoint, rep *RecoveryReport) error {
	sh.reset()
	w := sh.wal
	v := &replay{sh: sh}
	ckEntries := 0
	if ck != nil {
		if err := sh.installCheckpoint(ck); err != nil {
			// Installation can fail after mutating the key table; reset so
			// the next candidate starts clean.
			sh.reset()
			return err
		}
		ckEntries = ck.Entries
		v.skip = ckEntries
	}
	r := sh.svc.newLogReader(sh.id)
	var (
		tail      logTail
		tailStart int
		size      int64
	)
	for i, idx := range segs {
		if idx != i {
			return fmt.Errorf("wal segment chain broken: found segment %d at position %d", idx, i)
		}
		final := i == len(segs)-1
		name := path.Join(w.dir, segName(idx))
		rc, err := w.fs.Open(name)
		if err != nil {
			return err
		}
		tailStart = r.entries
		var keep *logTail
		if final {
			keep = &tail
		}
		valid, torn, err := r.segment(rc, idx, v, keep)
		rc.Close()
		switch {
		case err != nil:
			return err
		case torn && !final:
			return fmt.Errorf("wal segment %d has a torn tail but is not the last segment — refusing to drop admitted requests", idx)
		case !r.header && !final:
			return fmt.Errorf("wal segment %d has no header", idx)
		case torn:
			if err := truncateSegment(w.fs, name, valid); err != nil {
				return fmt.Errorf("truncate torn tail of segment %d: %w", idx, err)
			}
			rep.Truncations++
		}
		size = valid
	}
	switch {
	case v.skip > 0:
		return fmt.Errorf("checkpoint covers %d entries but the wal holds only %d — checkpoint outran durability", ckEntries, r.entries)
	case sh.steps != r.entries:
		return fmt.Errorf("replay produced %d entries, wal holds %d", sh.steps, r.entries)
	case sh.pages != len(r.owners):
		return fmt.Errorf("key table holds %d pages, the wal introduces %d", sh.pages, len(r.owners))
	}
	// Reopen the final segment for appending; when the tear consumed its
	// header, restart it at the running entry count with a fresh one.
	last := segs[len(segs)-1]
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
	sh.lastCkpt = ckEntries
	rep.Entries += int64(r.entries)
	rep.Requests += sh.reqs
	rep.Replayed += v.replayed
	if sh.lastSeq > rep.LastSeq {
		rep.LastSeq = sh.lastSeq
	}
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
