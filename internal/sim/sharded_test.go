package sim_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"convexcache/internal/check"
	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

func shardedCosts(n int) []costfn.Func {
	out := make([]costfn.Func, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = costfn.Monomial{C: 1, Beta: 2}
		} else {
			out[i] = costfn.Linear{W: float64(i + 1)}
		}
	}
	return out
}

func fastFactory(n int) func() sim.Policy {
	opt := core.Options{Costs: shardedCosts(n)}
	return func() sim.Policy { return core.NewFast(opt) }
}

func requireEqualResults(t *testing.T, label string, a, b sim.Result) {
	t.Helper()
	if a.Hits != b.Hits || !reflect.DeepEqual(a.Misses, b.Misses) ||
		!reflect.DeepEqual(a.Evictions, b.Evictions) || a.EffectiveSteps != b.EffectiveSteps {
		t.Fatalf("%s: results differ:\n  a: hits=%d misses=%v evictions=%v eff=%d\n  b: hits=%d misses=%v evictions=%v eff=%d",
			label, a.Hits, a.Misses, a.Evictions, a.EffectiveSteps, b.Hits, b.Misses, b.Evictions, b.EffectiveSteps)
	}
}

// TestShardedDeterminismAndDegeneracy covers the two contracts of sharded
// replay over the oracle workload corpus: worker parallelism never changes
// the merged accounting, and one shard reproduces sequential replay
// bit-for-bit. Warmup boundaries (none, mid-trace, past the end) ride
// along, including values that cut inside a batch.
func TestShardedDeterminismAndDegeneracy(t *testing.T) {
	ctx := context.Background()
	for _, w := range check.Workloads() {
		tr, err := w.Gen(11, 6000)
		if err != nil {
			t.Fatalf("%s: gen: %v", w.Name, err)
		}
		mk := fastFactory(tr.NumTenants())
		for _, k := range []int{16, 97} {
			for _, warm := range []int{0, 1, sim.BatchSize - 1, sim.BatchSize, 3000, 6000, 9000} {
				cfg := sim.Config{K: k, WarmupSteps: warm}
				seq, err := sim.Run(tr, mk(), cfg)
				if err != nil {
					t.Fatalf("%s k=%d warm=%d: sequential: %v", w.Name, k, warm, err)
				}
				for _, n := range []int{1, 2, 4, 8} {
					pl, err := sim.BuildShards(tr, n)
					if err != nil {
						t.Fatalf("%s: BuildShards(%d): %v", w.Name, n, err)
					}
					par, err := pl.Run(ctx, mk, cfg, n)
					if err != nil {
						t.Fatalf("%s k=%d warm=%d n=%d: %v", w.Name, k, warm, n, err)
					}
					ser, err := pl.Run(ctx, mk, cfg, 1)
					if err != nil {
						t.Fatalf("%s k=%d warm=%d n=%d workers=1: %v", w.Name, k, warm, n, err)
					}
					requireEqualResults(t, w.Name+"/parallel-vs-serial", par, ser)
					if par.Steps != tr.Len() {
						t.Fatalf("%s n=%d: merged Steps = %d, want %d", w.Name, n, par.Steps, tr.Len())
					}
					if got, want := par.Hits+par.TotalMisses(), int64(par.EffectiveSteps); got != want {
						t.Fatalf("%s n=%d: hits+misses=%d, effective steps=%d", w.Name, n, got, want)
					}
					if n == 1 {
						requireEqualResults(t, w.Name+"/n1-vs-sequential", par, seq)
					}
				}
			}
		}
	}
}

// TestShardedPlanReuse replays one plan twice and expects identical merged
// results — the plan carries no per-run state.
func TestShardedPlanReuse(t *testing.T) {
	tr := shardedTrace(t, 4000)
	mk := fastFactory(tr.NumTenants())
	pl, err := sim.BuildShards(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{K: 64}
	a, err := pl.Run(context.Background(), mk, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Run(context.Background(), mk, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "plan-reuse", a, b)
}

// TestShardedRejects covers the contract errors: non-positive shard count,
// k below the shard count, observers, the map engine, and a policy without
// a dense path.
func TestShardedRejects(t *testing.T) {
	tr := shardedTrace(t, 500)
	mk := fastFactory(tr.NumTenants())
	ctx := context.Background()

	if _, err := sim.BuildShards(tr, 0); err == nil {
		t.Fatal("BuildShards(0) succeeded")
	}
	if _, err := sim.RunSharded(ctx, tr, mk, sim.Config{K: 3}, 8); err == nil {
		t.Fatal("k < shards succeeded")
	}
	if _, err := sim.RunSharded(ctx, tr, mk, sim.Config{K: 64, Observer: func(sim.Event) {}}, 2); err == nil {
		t.Fatal("observer run succeeded")
	}
	if _, err := sim.RunSharded(ctx, tr, mk, sim.Config{K: 64, Engine: sim.EngineMap}, 2); err == nil {
		t.Fatal("map engine succeeded")
	}
	spec := policy.Spec{K: 64, Tenants: tr.NumTenants(), Costs: shardedCosts(tr.NumTenants()), Seed: 1}
	mkSparse := func() sim.Policy {
		p, err := policy.New("random", spec)
		if err != nil {
			t.Fatalf("registry: %v", err)
		}
		return p
	}
	if _, err := sim.RunSharded(ctx, tr, mkSparse, sim.Config{K: 64}, 2); err == nil {
		t.Fatal("sparse-only policy succeeded")
	}
}

// TestShardedCancellation cancels the context mid-run and expects an error
// wrapping context.Canceled from some shard.
func TestShardedCancellation(t *testing.T) {
	tr := shardedTrace(t, 60000)
	mk := fastFactory(tr.NumTenants())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunSharded(ctx, tr, mk, sim.Config{K: 64}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestShardedProgress checks that the serialized progress deltas sum to the
// trace length across concurrent shards.
func TestShardedProgress(t *testing.T) {
	tr := shardedTrace(t, 50000)
	mk := fastFactory(tr.NumTenants())
	total := 0
	cfg := sim.Config{K: 128, Progress: func(d int) { total += d }}
	if _, err := sim.RunSharded(context.Background(), tr, mk, cfg, 4); err != nil {
		t.Fatal(err)
	}
	if total != tr.Len() {
		t.Fatalf("progress deltas sum to %d, want %d", total, tr.Len())
	}
}

// TestShardedMoreShardsThanPages drives a degenerate partition where some
// shards receive no requests at all.
func TestShardedMoreShardsThanPages(t *testing.T) {
	b := trace.NewBuilder()
	for i := 0; i < 200; i++ {
		b.Add(0, trace.PageID(i%3))
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mk := fastFactory(1)
	res, err := sim.RunSharded(context.Background(), tr, mk, sim.Config{K: 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 200 {
		t.Fatalf("Steps = %d, want 200", res.Steps)
	}
	if got := res.Hits + res.TotalMisses(); got != 200 {
		t.Fatalf("hits+misses = %d, want 200", got)
	}
}

func shardedTrace(t *testing.T, length int) *trace.Trace {
	t.Helper()
	ws := check.Workloads()
	tr, err := ws[0].Gen(7, length)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestShardShare checks the capacity split sums to k and spreads the
// remainder over the lowest-numbered shards.
func TestShardShare(t *testing.T) {
	// k < n is included deliberately: the split itself stays well-defined
	// (trailing shards get zero pages) even though cached.New rejects such
	// configs — the rejection is the service's contract, not the math's.
	for _, tc := range []struct{ k, n int }{{8, 3}, {7, 7}, {100, 16}, {5, 4}, {4, 4}, {2, 5}, {1, 7}, {0, 3}} {
		sum := 0
		prev := 1 << 30
		for s := 0; s < tc.n; s++ {
			sh := sim.ShardShare(tc.k, tc.n, s)
			if sh > prev {
				t.Fatalf("k=%d n=%d: share grew at shard %d", tc.k, tc.n, s)
			}
			prev = sh
			sum += sh
		}
		if sum != tc.k {
			t.Fatalf("k=%d n=%d: shares sum to %d", tc.k, tc.n, sum)
		}
	}
}
