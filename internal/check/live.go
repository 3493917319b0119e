package check

import (
	"context"
	"fmt"
	"strings"

	"convexcache/internal/cached"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// This file holds the PR-7 live-vs-replay oracle: the live sharded cache
// service (internal/cached) against the offline simulator, extending the
// repo's differential discipline from simulation to serving. The live side
// is a real cached.Service — mailbox routing, single-writer shard engines,
// request logs — driven in-process; the offline side is the service's own
// Verify replay plus, at one shard, a direct sim.Run cross-check.

// DiffLive drives tr through a live cached.Service at each shard count and
// checks two promises:
//
//  1. Verify is clean at every count: the per-tenant hit/miss/eviction
//     counters the live shards accumulated match an offline replay of
//     every shard's request log exactly, each on an engine of the shard's
//     kind (the batched dense engine for ALG) at its capacity share.
//  2. Degeneracy: at n = 1 the live counters equal a direct sequential
//     sim.Run of tr on the dense engine — the live service with one shard
//     is the simulator, fed over a wire.
//
// Requests are keyed "p<page>", so the single live shard assigns page ids
// in first-appearance order — exactly the dense remap sim.Run uses, which
// is what makes promise 2 bit-exact rather than merely isomorphic. Shard
// counts exceeding k are skipped (the service rejects them by contract).
func DiffLive(tr *trace.Trace, k int, mk func() sim.Policy, shardCounts []int) (*Divergence, error) {
	seq, err := sim.Run(tr, mk(), sim.Config{K: k, Engine: sim.EngineDense})
	if err != nil {
		return nil, fmt.Errorf("check: sequential side failed: %w", err)
	}

	reqs := make([]cached.Request, tr.Len())
	for i, r := range tr.Requests() {
		op := cached.OpGet
		if i%4 == 3 {
			op = cached.OpPut
		}
		reqs[i] = cached.Request{Op: op, Tenant: r.Tenant, Key: fmt.Appendf(nil, "p%d", r.Page)}
	}
	tenants := tr.NumTenants()

	for _, n := range shardCounts {
		if n > k {
			continue
		}
		svc, err := cached.New(cached.Config{K: k, Shards: n, Tenants: tenants, NewPolicy: mk})
		if err != nil {
			return nil, fmt.Errorf("check: live service n=%d: %w", n, err)
		}
		div, err := diffLiveOne(svc, reqs, n, seq, tenants)
		svc.Close()
		if err != nil || div != nil {
			return div, err
		}
	}
	return nil, nil
}

func diffLiveOne(svc *cached.Service, reqs []cached.Request, n int, seq sim.Result, tenants int) (*Divergence, error) {
	const batch = 512
	for lo := 0; lo < len(reqs); lo += batch {
		hi := lo + batch
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if _, err := svc.Apply(reqs[lo:hi]); err != nil {
			return nil, fmt.Errorf("check: live apply n=%d at %d: %w", n, lo, err)
		}
	}
	rep, err := svc.Verify(context.Background())
	if err != nil {
		return nil, fmt.Errorf("check: live verify n=%d: %w", n, err)
	}
	if !rep.Clean {
		return &Divergence{
			Step: -1,
			A:    fmt.Sprintf("live n=%d: hits=%d misses=%d evictions=%d", n, rep.Live.TotalHits, rep.Live.TotalMisses, rep.Live.TotalEvictions),
			B:    "replay: " + strings.Join(rep.Diffs, "; "),
		}, nil
	}
	if rep.Requests != len(reqs) {
		return &Divergence{
			Step: -1,
			A:    fmt.Sprintf("live n=%d logged %d requests", n, rep.Requests),
			B:    fmt.Sprintf("driver sent %d", len(reqs)),
		}, nil
	}
	if n == 1 {
		live := sim.Result{
			Hits:           rep.Live.TotalHits,
			Misses:         rep.Live.Misses[:min(tenants, len(rep.Live.Misses))],
			Evictions:      rep.Live.Evictions[:min(tenants, len(rep.Live.Evictions))],
			EffectiveSteps: rep.Requests,
		}
		ref := sim.Result{
			Hits:           seq.Hits,
			Misses:         seq.Misses,
			Evictions:      seq.Evictions,
			EffectiveSteps: seq.EffectiveSteps,
		}
		if div := resultDivergence("live n=1", "sim.Run", live, ref); div != nil {
			return div, nil
		}
	}
	return nil, nil
}
