package sim_test

import (
	"context"
	"errors"
	"testing"

	"convexcache/internal/check"
	"convexcache/internal/sim"
)

// TestBatchedMatchesPerStep compares the batched dense loop against the
// per-step map engine, which drives Fast's per-request methods, over the
// oracle workload corpus, sweeping warmup boundaries that land before,
// inside, and exactly on batch boundaries — the splitting logic must keep
// every StepBatch call entirely warm or entirely measured.
func TestBatchedMatchesPerStep(t *testing.T) {
	for _, w := range check.Workloads() {
		tr, err := w.Gen(23, 5000)
		if err != nil {
			t.Fatalf("%s: gen: %v", w.Name, err)
		}
		mk := fastFactory(tr.NumTenants())
		for _, k := range []int{8, 64, 301} {
			for _, warm := range []int{0, 1, sim.BatchSize - 1, sim.BatchSize, sim.BatchSize + 7, 2*sim.BatchSize + 1, 5000, 8000} {
				cfg := sim.Config{K: k, WarmupSteps: warm, Engine: sim.EngineDense}
				batched, err := sim.Run(tr, mk(), cfg)
				if err != nil {
					t.Fatalf("%s k=%d warm=%d batched: %v", w.Name, k, warm, err)
				}
				cfg.Engine = sim.EngineMap
				perStep, err := sim.Run(tr, mk(), cfg)
				if err != nil {
					t.Fatalf("%s k=%d warm=%d per-step: %v", w.Name, k, warm, err)
				}
				requireEqualResults(t, w.Name+"/batched-vs-per-step", batched, perStep)
			}
		}
	}
}

// TestBatchedObserverFallsBack pins the engine contract that installing an
// Observer routes the run onto the map engine: the observed event stream
// must account for every request even for a DensePolicy, and pinning the
// dense engine with an Observer is refused.
func TestBatchedObserverFallsBack(t *testing.T) {
	tr := shardedTrace(t, 3000)
	mk := fastFactory(tr.NumTenants())
	events := 0
	cfg := sim.Config{K: 32, Observer: func(sim.Event) { events++ }}
	res, err := sim.Run(tr, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if events != tr.Len() {
		t.Fatalf("observer saw %d events, want %d", events, tr.Len())
	}
	if got := res.Hits + res.TotalMisses(); got != int64(tr.Len()) {
		t.Fatalf("hits+misses = %d, want %d", got, tr.Len())
	}
	cfg.Engine = sim.EngineDense
	if _, err := sim.Run(tr, mk(), cfg); !errors.Is(err, sim.ErrDenseObserver) {
		t.Fatalf("dense engine with an observer: got %v, want ErrDenseObserver", err)
	}
}

// TestBatchedCancellationMidRun cancels from inside a Progress callback —
// which fires on the CheckEverySteps cadence at batch boundaries — and
// expects the run to abort with the cause preserved, exercising the
// mid-trace abort path of the batched loop.
func TestBatchedCancellationMidRun(t *testing.T) {
	tr := shardedTrace(t, 4*sim.CheckEverySteps)
	mk := fastFactory(tr.NumTenants())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	cfg := sim.Config{K: 64, Progress: func(d int) {
		seen += d
		cancel()
	}}
	_, err := sim.RunContext(ctx, tr, mk(), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if seen == 0 || seen >= tr.Len() {
		t.Fatalf("aborted after %d steps, want a mid-trace abort (0 < steps < %d)", seen, tr.Len())
	}
}
