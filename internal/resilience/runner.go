package resilience

import (
	"context"
	"errors"
	"fmt"

	"convexcache/internal/core"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Checkpoint is a resumable cut of a replay: the policy's serialized state
// (which also names the resident pages, so the engine-side cache contents
// can be rebuilt) plus the accumulated counters and the next step to serve.
// It is JSON-serializable end to end (core.FastSnapshot already is), so a
// job store could persist it across process restarts.
type Checkpoint struct {
	// Step is the index of the next request to serve.
	Step int `json:"step"`
	// Hits, Misses, Evictions are the counters accumulated over [0, Step).
	Hits      int64   `json:"hits"`
	Misses    []int64 `json:"misses"`
	Evictions []int64 `json:"evictions"`
	// Snap is the policy checkpoint (core.Fast snapshot machinery).
	Snap core.FastSnapshot `json:"snap"`
}

// checkCadence matches sim.CheckEverySteps so cancellation latency is the
// same whether a replay runs synchronously or as a job.
const checkCadence = sim.CheckEverySteps

// RunCheckpointed replays tr through f on sim's map step, exactly like
// sim.Run's map engine (same victim/insert sequence, same counters), but
// snapshots a Checkpoint
// every `every` steps via save, and can start from a prior Checkpoint. A
// run resumed from a checkpoint produces a Result bit-identical to an
// uninterrupted run: the snapshot round-trip is idempotent (proved by the
// internal/check oracles) and the counters are carried in the checkpoint.
//
// progress, when non-nil, receives the current step at the cancellation
// cadence. f must be freshly constructed with the same core.Options on
// every (re)start; cost functions are configuration, not state.
func RunCheckpointed(
	ctx context.Context,
	tr *trace.Trace,
	f *core.Fast,
	k, every int,
	from *Checkpoint,
	save func(Checkpoint),
	progress func(step int),
) (sim.Result, error) {
	if k <= 0 {
		return sim.Result{}, errors.New("resilience: cache size must be positive")
	}
	if every <= 0 {
		every = 1 << 16
	}
	n := tr.Len()
	nt := tr.NumTenants()
	res := sim.Result{
		Policy:         f.Name(),
		K:              k,
		Steps:          n,
		EffectiveSteps: n,
		Misses:         make([]int64, nt),
		Evictions:      make([]int64, nt),
	}
	cache := sim.NewMapCache(f, k)
	start := 0
	if from != nil {
		if from.Step < 0 || from.Step > n {
			return sim.Result{}, fmt.Errorf("resilience: checkpoint step %d outside trace of %d requests", from.Step, n)
		}
		if err := f.Restore(from.Snap); err != nil {
			return sim.Result{}, fmt.Errorf("resilience: restore checkpoint: %w", err)
		}
		for p, t := range from.Snap.ResidentPages() {
			cache.Seed(p, t)
		}
		start = from.Step
		res.Hits = from.Hits
		copy(res.Misses, from.Misses)
		copy(res.Evictions, from.Evictions)
	}
	done := ctx.Done()
	for step := start; step < n; step++ {
		if step%checkCadence == checkCadence-1 {
			if done != nil {
				select {
				case <-done:
					return sim.Result{}, fmt.Errorf("resilience: job aborted at step %d: %w", step, context.Cause(ctx))
				default:
				}
			}
			if progress != nil {
				progress(step + 1)
			}
		}
		r := tr.At(step)
		hit, _, owner, err := cache.Access(step, r)
		if err != nil {
			return sim.Result{}, fmt.Errorf("resilience: %w", err)
		}
		if hit {
			res.Hits++
		} else {
			res.Misses[r.Tenant]++
			if owner >= 0 {
				res.Evictions[owner]++
			}
		}
		// Checkpoint on interior boundaries only; the final state is the
		// Result itself.
		if save != nil && (step+1)%every == 0 && step+1 < n {
			save(Checkpoint{
				Step:      step + 1,
				Hits:      res.Hits,
				Misses:    append([]int64(nil), res.Misses...),
				Evictions: append([]int64(nil), res.Evictions...),
				Snap:      f.Snapshot(),
			})
		}
	}
	if progress != nil {
		progress(n)
	}
	return res, nil
}
