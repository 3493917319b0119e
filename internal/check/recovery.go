package check

import (
	"context"
	"fmt"
	"os"
	"strings"

	"convexcache/internal/cached"
	"convexcache/internal/fault"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// This file holds the crash-recovery oracle: kill the live cache service at
// chosen points, recover it from its write-ahead log, and require the
// recovered state to be bit-identical to the state that crashed — then keep
// driving it and require the completed run to be bit-identical to a run that
// never crashed. Recovery that is merely "close" is a correctness bug: the
// shard step is a deterministic function of the logged entry stream, so the
// WAL replay has no legitimate source of drift.

// recoveryWAL returns the WAL configuration the oracle uses: small segments,
// so every scenario crosses rotations and recovery replays sealed segments
// as well as the final one.
func recoveryWAL(dir string, fs fault.FS) *cached.WALConfig {
	return &cached.WALConfig{Dir: dir, Fsync: cached.FsyncOff, SegmentBytes: 4096, FS: fs}
}

// statsSig canonicalizes the engine-visible part of a Stats report: tenant
// counters, quota vector, and per-shard request/occupancy/page counts. WAL
// layout fields (segment index, sealed/tail split) are excluded — they depend
// on varint-encoded sequence numbers whose interleaving across shards is
// scheduler-dependent.
func statsSig(st cached.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d hits=%d misses=%d ev=%d quotas=%v", st.Requests, st.Hits, st.Misses, st.Evictions, st.Quotas)
	for _, ts := range st.PerTenant {
		fmt.Fprintf(&b, " t%d:%d/%d/%d/%d", ts.Tenant, ts.Requests, ts.Hits, ts.Misses, ts.Evictions)
	}
	for _, sh := range st.Shards {
		fmt.Fprintf(&b, " s%d:%d/%d/%d", sh.Shard, sh.Requests, sh.Occupancy, sh.Pages)
	}
	return b.String()
}

// driveBatches applies reqs[lo:hi) in fixed batches from one goroutine.
func driveBatches(svc *cached.Service, reqs []cached.Request, lo, hi int) error {
	const batch = 512
	for ; lo < hi; lo += batch {
		end := lo + batch
		if end > hi {
			end = hi
		}
		if _, err := svc.Apply(reqs[lo:end]); err != nil {
			return err
		}
	}
	return nil
}

// verifyClean runs the service's own live-vs-replay differential and adapts a
// failure into a Divergence.
func verifyClean(svc *cached.Service, label string) (*Divergence, error) {
	rep, err := svc.Verify(context.Background())
	if err != nil {
		return nil, fmt.Errorf("check: %s: verify: %w", label, err)
	}
	if !rep.Clean {
		return &Divergence{Step: -1, A: label, B: "replay: " + strings.Join(rep.Diffs, "; ")}, nil
	}
	return nil, nil
}

// recoveryScenario is one crash shape in the DiffRecovery matrix.
type recoveryScenario struct {
	name string
	// partition selects the quota-partition engine (with a quota rebalance
	// installed as the final durable action before the crash — the
	// mid-rebalance crash point); false selects the classic policy engine.
	partition bool
	// cut is the request index the crash lands on, as a fraction of the
	// trace.
	cut float64
}

// DiffRecovery is the crash-and-recover differential oracle. For each shard
// count it crashes a WAL-backed service at several points — early, mid-trace
// after a quota rebalance (partition engine), and late (classic engine) —
// and checks three promises:
//
//  1. Bit-exact resurrection: the recovered service's stats equal the frozen
//     pre-crash stats exactly (tenant counters, occupancy, page tables).
//  2. Replay validity: the recovered state passes the service's own
//     live-vs-replay verification.
//  3. Continuation: driving the recovered service with the rest of the trace
//     produces exactly the stats of a service that never crashed.
//
// A final scenario tears the storage layer itself mid-group-commit with the
// deterministic fault injector: the batch must fail un-acknowledged, and
// recovery on healthy storage must truncate the torn frame and come back
// internally consistent and verifying clean.
func DiffRecovery(tr *trace.Trace, k int, mk func() sim.Policy, shardCounts []int) (*Divergence, error) {
	reqs := make([]cached.Request, tr.Len())
	for i, r := range tr.Requests() {
		op := cached.OpGet
		if i%4 == 3 {
			op = cached.OpPut
		}
		reqs[i] = cached.Request{Op: op, Tenant: r.Tenant, Key: fmt.Appendf(nil, "p%d", r.Page)}
	}
	tenants := tr.NumTenants()

	scenarios := []recoveryScenario{
		{name: "classic-early", partition: false, cut: 0.1},
		{name: "classic-late", partition: false, cut: 0.9},
		{name: "partition-mid-rebalance", partition: true, cut: 0.5},
	}
	for _, n := range shardCounts {
		if n > k {
			continue
		}
		for _, sc := range scenarios {
			div, err := diffRecoveryOne(reqs, tenants, k, n, mk, sc)
			if err != nil || div != nil {
				return div, err
			}
		}
		div, err := diffTornWrite(reqs, tenants, k, n, mk)
		if err != nil || div != nil {
			return div, err
		}
	}
	return nil, nil
}

// recoveryConfig assembles the service config for one scenario leg.
func recoveryConfig(tenants, k, n int, mk func() sim.Policy, partition bool, wal *cached.WALConfig) cached.Config {
	cfg := cached.Config{K: k, Shards: n, Tenants: tenants, WAL: wal}
	if partition {
		cfg.Quotas = evenQuotas(k, tenants)
	} else {
		cfg.NewPolicy = mk
	}
	return cfg
}

// evenQuotas splits k pages over tenants, remainder to the low tenants, so
// the vector sums to k exactly.
func evenQuotas(k, tenants int) []int {
	q := make([]int, tenants)
	for t := range q {
		q[t] = k / tenants
		if t < k%tenants {
			q[t]++
		}
	}
	return q
}

// rotatedQuotas is the rebalance target: each tenant takes its neighbor's
// share, preserving the sum.
func rotatedQuotas(base []int) []int {
	out := make([]int, len(base))
	for t := range base {
		out[t] = base[(t+1)%len(base)]
	}
	return out
}

func diffRecoveryOne(reqs []cached.Request, tenants, k, n int, mk func() sim.Policy, sc recoveryScenario) (div *Divergence, err error) {
	label := fmt.Sprintf("recovery n=%d %s", n, sc.name)
	dir, err := os.MkdirTemp("", "convexcache-recovery-")
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", label, err)
	}
	defer os.RemoveAll(dir)

	cut := int(float64(len(reqs)) * sc.cut)
	var rebalance []int
	if sc.partition {
		rebalance = rotatedQuotas(evenQuotas(k, tenants))
	}

	// Leg 1: drive to the crash point and kill the process mid-flight.
	crashed, err := cached.New(recoveryConfig(tenants, k, n, mk, sc.partition, recoveryWAL(dir, nil)))
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", label, err)
	}
	if err := driveBatches(crashed, reqs, 0, cut); err != nil {
		crashed.Close()
		return nil, fmt.Errorf("check: %s: drive: %w", label, err)
	}
	if rebalance != nil {
		if err := crashed.SetQuotas(rebalance); err != nil {
			crashed.Close()
			return nil, fmt.Errorf("check: %s: rebalance: %w", label, err)
		}
	}
	crashed.Crash()
	frozen := statsSig(crashed.Stats())

	// Leg 2: recover and demand bit-exact resurrection.
	wcfg := recoveryWAL(dir, nil)
	wcfg.Recover = true
	svc, err := cached.New(recoveryConfig(tenants, k, n, mk, sc.partition, wcfg))
	if err != nil {
		return nil, fmt.Errorf("check: %s: recover: %w", label, err)
	}
	defer svc.Close()
	if got := statsSig(svc.Stats()); got != frozen {
		return &Divergence{Step: cut, A: label + " recovered: " + got, B: "frozen pre-crash: " + frozen}, nil
	}
	if div, err := verifyClean(svc, label+" post-recovery"); div != nil || err != nil {
		return div, err
	}

	// Leg 3: finish the trace and demand exact agreement with a run that
	// never crashed.
	if err := driveBatches(svc, reqs, cut, len(reqs)); err != nil {
		return nil, fmt.Errorf("check: %s: continue: %w", label, err)
	}
	if div, err := verifyClean(svc, label+" post-continuation"); div != nil || err != nil {
		return div, err
	}
	refDir, err := os.MkdirTemp("", "convexcache-recovery-ref-")
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", label, err)
	}
	defer os.RemoveAll(refDir)
	ref, err := cached.New(recoveryConfig(tenants, k, n, mk, sc.partition, recoveryWAL(refDir, nil)))
	if err != nil {
		return nil, fmt.Errorf("check: %s: reference: %w", label, err)
	}
	defer ref.Close()
	if err := driveBatches(ref, reqs, 0, cut); err != nil {
		return nil, fmt.Errorf("check: %s: reference drive: %w", label, err)
	}
	if rebalance != nil {
		if err := ref.SetQuotas(rebalance); err != nil {
			return nil, fmt.Errorf("check: %s: reference rebalance: %w", label, err)
		}
	}
	if err := driveBatches(ref, reqs, cut, len(reqs)); err != nil {
		return nil, fmt.Errorf("check: %s: reference drive: %w", label, err)
	}
	if got, want := statsSig(svc.Stats()), statsSig(ref.Stats()); got != want {
		return &Divergence{Step: cut, A: label + " crash+recover+continue: " + got, B: "uninterrupted: " + want}, nil
	}
	return nil, nil
}

// diffTornWrite is the mid-batch crash: a deterministic storage fault tears a
// group-commit write partway through. The contract is weaker than the clean
// crash points — the exact tear position depends on shard scheduling — but
// absolute: the failing batch is never acknowledged, and recovery must come
// back internally consistent, verifying clean, and still serving.
func diffTornWrite(reqs []cached.Request, tenants, k, n int, mk func() sim.Policy) (*Divergence, error) {
	label := fmt.Sprintf("recovery n=%d torn-write", n)
	dir, err := os.MkdirTemp("", "convexcache-torn-")
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", label, err)
	}
	defer os.RemoveAll(dir)

	ffs := fault.NewFS(fault.OSFS, fault.FSConfig{Seed: 7, CrashAtWrite: int64(30 + n*10)}, nil)
	svc, err := cached.New(recoveryConfig(tenants, k, n, mk, false, recoveryWAL(dir, ffs)))
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", label, err)
	}
	torn := false
	for lo := 0; lo+128 <= len(reqs); lo += 128 {
		if _, err := svc.Apply(reqs[lo : lo+128]); err != nil {
			torn = true
			break
		}
	}
	svc.Close()
	if !torn {
		return nil, fmt.Errorf("check: %s: fault injector never fired over %d requests", label, len(reqs))
	}

	wcfg := recoveryWAL(dir, nil)
	wcfg.Recover = true
	rec, err := cached.New(recoveryConfig(tenants, k, n, mk, false, wcfg))
	if err != nil {
		return nil, fmt.Errorf("check: %s: recover: %w", label, err)
	}
	defer rec.Close()
	st := rec.Stats()
	if st.Hits+st.Misses != st.Requests {
		return &Divergence{Step: -1, A: fmt.Sprintf("%s: hits %d + misses %d", label, st.Hits, st.Misses), B: fmt.Sprintf("requests %d", st.Requests)}, nil
	}
	if rep := rec.Recovery(); rep == nil || rep.Requests != st.Requests {
		return &Divergence{Step: -1, A: fmt.Sprintf("%s: recovery report %+v", label, rep), B: fmt.Sprintf("stats report %d requests", st.Requests)}, nil
	}
	if div, err := verifyClean(rec, label+" post-recovery"); div != nil || err != nil {
		return div, err
	}
	if err := driveBatches(rec, reqs, 0, min(len(reqs), 2048)); err != nil {
		return nil, fmt.Errorf("check: %s: serve after recovery: %w", label, err)
	}
	return verifyClean(rec, label+" post-serve")
}
