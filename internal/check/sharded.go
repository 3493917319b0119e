package check

import (
	"context"
	"fmt"
	"reflect"

	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// This file holds the sharded-replay oracle: sharded replay against
// sequential replay, compared on the full per-tenant accounting (hits,
// misses, evictions, effective steps), which is the observable contract —
// sharded replay additionally promises that worker parallelism never changes
// the merged numbers.

// resultDivergence compares two Results and reports an aggregate-level
// Divergence (Step == -1) when any accounted quantity differs.
func resultDivergence(labelA, labelB string, a, b sim.Result) *Divergence {
	if a.Hits == b.Hits &&
		reflect.DeepEqual(a.Misses, b.Misses) &&
		reflect.DeepEqual(a.Evictions, b.Evictions) &&
		a.EffectiveSteps == b.EffectiveSteps {
		return nil
	}
	return &Divergence{
		Step: -1,
		A:    fmt.Sprintf("%s: hits=%d misses=%v evictions=%v eff=%d", labelA, a.Hits, a.Misses, a.Evictions, a.EffectiveSteps),
		B:    fmt.Sprintf("%s: hits=%d misses=%v evictions=%v eff=%d", labelB, b.Hits, b.Misses, b.Evictions, b.EffectiveSteps),
	}
}

// DiffSharded checks the two promises of sharded replay on one trace:
//
//  1. Degeneracy: RunSharded with n = 1 is bit-identical to sequential
//     sim.Run on the dense engine (same model, same loop, same numbers).
//  2. Determinism: for every n, replaying the same ShardPlan with 1 worker
//     and with n workers yields identical merged accounting — parallelism
//     never changes the answer.
//
// It also enforces conservation on every merged result: hits plus total
// misses must equal the effective step count. Shard counts that exceed k
// are skipped (the runner rejects them by contract).
func DiffSharded(tr *trace.Trace, k int, mk func() sim.Policy, shardCounts []int) (*Divergence, error) {
	seq, err := sim.Run(tr, mk(), sim.Config{K: k, Engine: sim.EngineDense})
	if err != nil {
		return nil, fmt.Errorf("check: sequential side failed: %w", err)
	}
	ctx := context.Background()
	for _, n := range shardCounts {
		if n > k {
			continue
		}
		pl, err := sim.BuildShards(tr, n)
		if err != nil {
			return nil, fmt.Errorf("check: shard plan n=%d: %w", n, err)
		}
		par, err := pl.Run(ctx, mk, sim.Config{K: k}, n)
		if err != nil {
			return nil, fmt.Errorf("check: sharded run n=%d: %w", n, err)
		}
		ser, err := pl.Run(ctx, mk, sim.Config{K: k}, 1)
		if err != nil {
			return nil, fmt.Errorf("check: sharded run n=%d workers=1: %w", n, err)
		}
		if div := resultDivergence(fmt.Sprintf("n=%d workers=%d", n, n), fmt.Sprintf("n=%d workers=1", n), par, ser); div != nil {
			return div, nil
		}
		if got, want := par.Hits+par.TotalMisses(), int64(par.EffectiveSteps); got != want {
			return &Divergence{
				Step: -1,
				A:    fmt.Sprintf("n=%d hits+misses=%d", n, got),
				B:    fmt.Sprintf("effective steps=%d", want),
			}, nil
		}
		if n == 1 {
			if div := resultDivergence("sharded n=1", "sequential", par, seq); div != nil {
				return div, nil
			}
		}
	}
	return nil, nil
}
