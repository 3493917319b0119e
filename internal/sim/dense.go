package sim

import (
	"context"

	"convexcache/internal/trace"
)

// BatchSize is the run length the dense engine hands to a DensePolicy per
// StepBatch call. One interface dispatch, one bounds-check region and one
// cancellation/progress probe are amortized over this many requests; batches
// are split (never merged) at the warmup boundary so a StepBatch call is
// always entirely warm or entirely measured.
const BatchSize = 64

// BatchCounters is the accounting a StepBatch call updates in place. The
// Misses and Evictions slices alias the run's Result counters, so the policy
// increments them directly; Hits is folded into the Result after the loop.
type BatchCounters struct {
	// Hits counts measured (non-warmup) cache hits.
	Hits int64
	// Misses counts measured fetches per tenant.
	Misses []int64
	// Evictions counts measured evictions per owner.
	Evictions []int64
}

// DensePolicy is the batched fast path of the engine. A policy that
// implements it is driven with dense page indices (see trace.Dense) in runs
// of up to BatchSize requests per StepBatch call: the policy owns the whole
// hit/miss/evict/insert loop — including residency, which it keeps in its
// own per-page records so the probe, the owner lookup and the insert land on
// one cache line — and the engine only intervenes at batch boundaries
// (context cancellation, progress). The dense engine emits no per-step
// events, so runs with an Observer take the map engine, which drives the
// policy's Policy methods.
//
// Contract: a StepBatch call must be observably identical to serving the
// same requests through the Policy methods on the map engine — the
// internal/check engines oracle enforces this on the per-tenant accounting
// and the final policy state.
type DensePolicy interface {
	Policy
	// PrepareDense installs the dense trace view and the cache capacity
	// before the first request of a dense run. Returning false declines the
	// dense path and the engine falls back to the map-based loop.
	PrepareDense(d *trace.Dense, k int) bool
	// StepBatch serves pages (dense indices) starting at global step base.
	// When warm is true the batch lies inside the warmup prefix and bc must
	// not be updated. A non-nil error aborts the run (an internal invariant
	// broke, e.g. no victim available).
	StepBatch(base int, pages []int32, bc *BatchCounters, warm bool) error
}

// runDenseView drives the dense engine over a trace view: the whole trace
// for Run, or one shard's request subsequence (sharing the global dense
// remap) for the sharded runner.
//
// The policy serves runs of up to BatchSize requests per StepBatch call, and
// the engine probes context cancellation and progress only at batch
// boundaries on the CheckEverySteps cadence. Batches are split at the warmup
// boundary so every call is either fully warm or fully measured; counters
// land directly in the Result via the aliased BatchCounters. On cancellation
// the run aborts at the next batch boundary (mid-batch work completes
// first).
func runDenseView(ctx context.Context, d *trace.Dense, p DensePolicy, cfg Config) (Result, bool, error) {
	if !p.PrepareDense(d, cfg.K) {
		return Result{}, false, nil
	}
	res := Result{
		Policy:         p.Name(),
		K:              cfg.K,
		Steps:          d.Len(),
		EffectiveSteps: effectiveSteps(d.Len(), cfg.WarmupSteps),
		Misses:         make([]int64, d.Tenants),
		Evictions:      make([]int64, d.Tenants),
	}
	bc := BatchCounters{Misses: res.Misses, Evictions: res.Evictions}
	reqs := d.Reqs
	done := ctx.Done()
	reported := 0
	next := CheckEverySteps
	for base := 0; base < len(reqs); {
		end := base + BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		warm := base < cfg.WarmupSteps
		if warm && end > cfg.WarmupSteps {
			end = cfg.WarmupSteps
		}
		if err := p.StepBatch(base, reqs[base:end], &bc, warm); err != nil {
			return Result{}, true, err
		}
		base = end
		if base >= next {
			next += CheckEverySteps
			if done != nil {
				select {
				case <-done:
					return Result{}, true, cancelErr(ctx, base)
				default:
				}
			}
			if cfg.Progress != nil {
				cfg.Progress(base - reported)
				reported = base
			}
		}
	}
	res.Hits = bc.Hits
	if cfg.Progress != nil && len(reqs) > reported {
		cfg.Progress(len(reqs) - reported)
	}
	return res, true, nil
}
