package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"convexcache/internal/trace"
)

// Sharded replay parallelizes one trace across n single-writer workers by
// partitioning the page universe: dense page p goes to shard p mod n, each
// shard replays its subsequence of the requests on a private dense engine
// with a k/n capacity share, and the per-tenant counters are merged by
// elementwise integer addition at the end.
//
// What this computes, precisely: the replay of a *partitioned* cache — n
// independent caches whose capacities sum to K, each serving a fixed subset
// of the pages — not the single shared-K cache of Run. The two models agree
// at n = 1 bit for bit, and the partitioned model itself is exact, not
// approximate: because the paper's objective Σ f_i(misses_i) is separable
// per tenant and every page belongs to exactly one shard, each tenant's
// miss count is the sum of its per-shard miss counts with no cross terms.
// The merge is integer addition, so the final accounting is bit-identical
// for any worker count and any completion order — parallelism never changes
// the answer, which the internal/check sharded oracle enforces.
//
// The warmup boundary is global: a shard's warmup prefix is exactly its
// requests whose global step precedes Config.WarmupSteps, so the merged
// measured counters cover the same request suffix as a sequential run.

// ShardPlan is the reusable page partition of one trace: build it once with
// BuildShards, replay it any number of times with Run. The plan pins the
// shard count; capacity, policy and warmup are per-Run.
type ShardPlan struct {
	d *trace.Dense
	n int
	// shards[s] holds shard s's request subsequence and, parallel to it,
	// the global step of each request (ascending by construction), which
	// locates the warmup boundary inside the shard by binary search.
	shards []shardSeq
}

// ShardShare returns shard s's capacity share of a k-page cache split
// across n shards: k/n pages, with the remainder distributed one page each
// to the lowest-numbered shards so the shares sum to exactly k. It is the
// split both the offline sharded replay and the live cache service use, so
// the two sides of a live-vs-replay differential agree by construction.
func ShardShare(k, n, s int) int {
	share := k / n
	if s < k%n {
		share++
	}
	return share
}

type shardSeq struct {
	reqs  []int32
	steps []int32
}

// N returns the shard count the plan was built with.
func (pl *ShardPlan) N() int { return pl.n }

// ShardLen returns the number of requests routed to shard s.
func (pl *ShardPlan) ShardLen(s int) int { return len(pl.shards[s].reqs) }

// BuildShards partitions tr across n shards by dense page index modulo n.
// The routing is a pure function of the trace's dense remap (first
// appearance order), so the same trace always yields the same partition.
func BuildShards(tr *trace.Trace, n int) (*ShardPlan, error) {
	return BuildShardsBy(tr, n, nil)
}

// BuildShardsBy is BuildShards with an explicit routing function over the
// original PageIDs: page p goes to shard shardOf(p), which must return a
// value in [0, n). A nil shardOf selects the default dense-index-mod-n
// partition. Callers that replay the request log of a live hash-routed
// cache pass the live router's function here, so the offline replay
// partitions pages exactly the way the serving path did — the precondition
// for an exact live-vs-replay differential.
func BuildShardsBy(tr *trace.Trace, n int, shardOf func(trace.PageID) int) (*ShardPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: shard count must be positive, got %d", n)
	}
	if tr.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("sim: trace too long to shard (%d steps)", tr.Len())
	}
	d := tr.Dense()
	// Route every distinct page once; the request passes below are table
	// lookups regardless of how expensive shardOf is.
	pageShard := make([]int32, d.NumPages())
	for ix := range pageShard {
		s := ix % n
		if shardOf != nil {
			s = shardOf(d.Pages[ix])
			if s < 0 || s >= n {
				return nil, fmt.Errorf("sim: shardOf(%d) = %d out of range [0,%d)", d.Pages[ix], s, n)
			}
		}
		pageShard[ix] = int32(s)
	}
	pl := &ShardPlan{d: d, n: n, shards: make([]shardSeq, n)}
	// Pre-size each shard from a counting pass so the routing pass does not
	// re-grow n slices.
	counts := make([]int, n)
	for _, pg := range d.Reqs {
		counts[pageShard[pg]]++
	}
	for s := range pl.shards {
		pl.shards[s].reqs = make([]int32, 0, counts[s])
		pl.shards[s].steps = make([]int32, 0, counts[s])
	}
	for step, pg := range d.Reqs {
		s := pageShard[pg]
		pl.shards[s].reqs = append(pl.shards[s].reqs, pg)
		pl.shards[s].steps = append(pl.shards[s].steps, int32(step))
	}
	return pl, nil
}

// kShare returns shard s's capacity share; see ShardShare.
func (pl *ShardPlan) kShare(k, s int) int {
	return ShardShare(k, pl.n, s)
}

// warmupAt returns how many of shard s's requests fall inside the global
// warmup prefix [0, w).
func (pl *ShardPlan) warmupAt(s, w int) int {
	steps := pl.shards[s].steps
	return sort.Search(len(steps), func(j int) bool { return int(steps[j]) >= w })
}

// Run replays the plan with a fresh policy per shard (mk must return
// independent instances; they run concurrently) and merges the per-shard
// results. workers bounds the number of shards replayed simultaneously and
// is clamped to [1, n]; the merged Result is identical for every value.
//
// Restrictions versus Run: the policy must support the dense engine (each
// shard runs the dense loop over its page subset), cfg.K must be at least
// the shard count (every shard needs a slot), and cfg.Observer must be nil
// — per-step events from concurrent shards would interleave
// nondeterministically, which is exactly what sharded replay promises not
// to do. Progress remains available: callbacks are serialized and the
// deltas sum to the trace length.
func (pl *ShardPlan) Run(ctx context.Context, mk func() Policy, cfg Config, workers int) (Result, error) {
	if cfg.K <= 0 {
		return Result{}, errors.New("sim: cache size must be positive")
	}
	if cfg.K < pl.n {
		return Result{}, fmt.Errorf("sim: sharded replay needs k >= shards, got k=%d shards=%d", cfg.K, pl.n)
	}
	if cfg.Observer != nil {
		return Result{}, errors.New("sim: sharded replay does not support per-step observers")
	}
	if cfg.Engine == EngineMap {
		return Result{}, errors.New("sim: sharded replay requires the dense engine")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > pl.n {
		workers = pl.n
	}

	// Serialize Progress across shards; the per-shard engines keep their
	// CheckEverySteps cadence, so the merged delta stream has the same
	// granularity as a sequential run.
	progress := cfg.Progress
	var progMu sync.Mutex
	var locked func(int)
	if progress != nil {
		locked = func(delta int) {
			progMu.Lock()
			progress(delta)
			progMu.Unlock()
		}
	}

	results := make([]Result, pl.n)
	errs := make([]error, pl.n)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range idx {
				results[s], errs[s] = pl.runShard(ctx, s, mk, cfg, locked)
			}
		}()
	}
	for s := range pl.shards {
		idx <- s
	}
	close(idx)
	wg.Wait()

	// Report the lowest-numbered shard's error so a failure is as
	// deterministic as a success.
	for s, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("sim: shard %d/%d: %w", s, pl.n, err)
		}
	}

	total := 0
	for s := range pl.shards {
		total += len(pl.shards[s].reqs)
	}
	out := Result{
		Policy:         results[0].Policy,
		K:              cfg.K,
		Steps:          total,
		EffectiveSteps: effectiveSteps(total, cfg.WarmupSteps),
		Misses:         make([]int64, pl.d.Tenants),
		Evictions:      make([]int64, pl.d.Tenants),
	}
	for s := range results {
		r := &results[s]
		out.Hits += r.Hits
		for i := range r.Misses {
			out.Misses[i] += r.Misses[i]
		}
		for i := range r.Evictions {
			out.Evictions[i] += r.Evictions[i]
		}
	}
	return out, nil
}

// runShard replays one shard on its own dense engine instance.
func (pl *ShardPlan) runShard(ctx context.Context, s int, mk func() Policy, cfg Config, progress func(int)) (Result, error) {
	p := mk()
	dp, ok := p.(DensePolicy)
	if !ok {
		return Result{}, fmt.Errorf("sim: policy %s does not support the dense engine", p.Name())
	}
	scfg := Config{
		K:           pl.kShare(cfg.K, s),
		WarmupSteps: pl.warmupAt(s, cfg.WarmupSteps),
		Progress:    progress,
	}
	view := pl.d.Subsequence(pl.shards[s].reqs)
	res, handled, err := runDenseView(ctx, view, dp, scfg)
	if err != nil {
		return Result{}, err
	}
	if !handled {
		return Result{}, fmt.Errorf("sim: policy %s declined the dense engine", p.Name())
	}
	return res, nil
}

// RunSharded partitions tr across n shards and replays them on n concurrent
// workers: the one-call entry point for throughput runs. See ShardPlan.Run
// for the exact model and its restrictions.
func RunSharded(ctx context.Context, tr *trace.Trace, mk func() Policy, cfg Config, n int) (Result, error) {
	pl, err := BuildShards(tr, n)
	if err != nil {
		return Result{}, err
	}
	return pl.Run(ctx, mk, cfg, n)
}
