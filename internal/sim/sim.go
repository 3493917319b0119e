// Package sim is the cache simulation engine of the reproduction: it owns
// the cache content set, drives any eviction Policy over a request sequence,
// and accounts per-tenant misses, evictions and convex costs.
//
// The engine is deliberately policy-agnostic: the paper's algorithm
// (internal/core), all baselines (internal/policy) and offline comparators
// implement the same Policy interface, so every experiment compares like
// with like.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"convexcache/internal/costfn"
	"convexcache/internal/trace"
)

// Policy chooses eviction victims. The engine owns cache membership; the
// policy only ranks pages. Calls arrive in trace order with the 0-based step
// index.
//
// Contract: Victim must return a page currently in the cache (the engine
// verifies and fails the run otherwise); OnHit/OnInsert/OnEvict must be
// accepted in any interleaving consistent with cache semantics.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// OnHit is invoked when the requested page is already cached.
	OnHit(step int, r trace.Request)
	// OnInsert is invoked after a missed page has been placed in the cache
	// (post-eviction if one was necessary).
	OnInsert(step int, r trace.Request)
	// Victim returns the page to evict to make room for the request r at
	// the given step. It is called only when the cache is full and r is
	// absent.
	Victim(step int, r trace.Request) trace.PageID
	// OnEvict is invoked after the engine removed p from the cache.
	OnEvict(step int, p trace.PageID)
	// Reset restores the policy to its initial state so the instance can
	// be reused for another run.
	Reset()
}

// OfflinePolicy is implemented by policies that need the whole (indexed)
// request sequence in advance, such as Belady's MIN. The engine calls
// Prepare before the first request when the policy implements it.
type OfflinePolicy interface {
	Policy
	// Prepare installs the full indexed trace.
	Prepare(ix *trace.Indexed)
}

// Event is delivered to observers after each simulation step.
type Event struct {
	// Step is the 0-based request index.
	Step int
	// Req is the request served at this step.
	Req trace.Request
	// Miss is true when the page was not cached.
	Miss bool
	// Evicted is the evicted page when an eviction occurred, else -1.
	Evicted trace.PageID
	// EvictedTenant is the owner of Evicted, else -1.
	EvictedTenant trace.Tenant
	// Warmup is true for steps excluded from the Result counters.
	Warmup bool
}

// Observer receives per-step events; used for window series and debugging.
type Observer func(Event)

// Result summarizes one simulation run.
type Result struct {
	// Policy is the policy name.
	Policy string
	// K is the cache size used.
	K int
	// Steps is the number of requests served, including warmup.
	Steps int
	// EffectiveSteps is the number of measured requests: Steps minus the
	// warmup steps excluded from the counters. Hit-rate math over a Result
	// must divide by EffectiveSteps, not Steps.
	EffectiveSteps int
	// Hits is the total hit count.
	Hits int64
	// Misses[i] counts fetches (requests not found in cache) per tenant.
	Misses []int64
	// Evictions[i] counts evictions per tenant.
	Evictions []int64
}

// TotalMisses sums misses over tenants.
func (r Result) TotalMisses() int64 {
	var s int64
	for _, m := range r.Misses {
		s += m
	}
	return s
}

// TotalEvictions sums evictions over tenants.
func (r Result) TotalEvictions() int64 {
	var s int64
	for _, e := range r.Evictions {
		s += e
	}
	return s
}

// Cost evaluates the convex objective sum_i f_i(misses_i) for the run.
// Tenants beyond len(fs) contribute zero cost; this matches the paper's
// dummy flush tenant, which has no SLA.
func (r Result) Cost(fs []costfn.Func) float64 {
	return Cost(fs, r.Misses)
}

// EvictionCost evaluates sum_i f_i(evictions_i), the paper's accounting
// (cost charged on eviction).
func (r Result) EvictionCost(fs []costfn.Func) float64 {
	return Cost(fs, r.Evictions)
}

// Cost computes sum_i f_i(counts_i) over the tenants that have a cost
// function.
func Cost(fs []costfn.Func, counts []int64) float64 {
	total := 0.0
	for i, f := range fs {
		if i >= len(counts) {
			break
		}
		total += f.Value(float64(counts[i]))
	}
	return total
}

// PerTenantCost returns f_i(counts_i) for each tenant with a cost function.
func PerTenantCost(fs []costfn.Func, counts []int64) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		if i < len(counts) {
			out[i] = f.Value(float64(counts[i]))
		}
	}
	return out
}

// Engine selects which request loop drives the run.
type Engine int

const (
	// EngineAuto (the default) uses the dense engine when the policy
	// implements DensePolicy, accepts the trace and no Observer is
	// installed, else the map engine.
	EngineAuto Engine = iota
	// EngineMap forces the map-backed engine even for dense-capable
	// policies; used by differential tests that compare the two loops.
	EngineMap
	// EngineDense requires the dense engine and fails the run when the
	// policy does not implement DensePolicy, declines the trace, or an
	// Observer is installed (the dense engine emits no per-step events).
	EngineDense
)

// Config controls a simulation run.
type Config struct {
	// K is the cache capacity in pages; must be positive.
	K int
	// Observer, when non-nil, receives an Event per step.
	Observer Observer
	// WarmupSteps excludes the first N requests from the Result counters
	// (the policy still sees them), for steady-state measurement. Events
	// are delivered for warmup steps too, with Warmup set.
	WarmupSteps int
	// Engine pins the run to one of the two request loops; see EngineAuto.
	Engine Engine
	// Progress, when non-nil, is invoked roughly every CheckEverySteps
	// steps with the number of steps completed since the previous call,
	// and once more after the last request with the remainder. The deltas
	// sum to the trace length. It shares the cancellation-check cadence,
	// so live metrics (steps/sec feeds) cost nothing per step.
	Progress func(delta int)
}

// CheckEverySteps is the cadence (in steps) at which both engines check
// context cancellation and report Progress. It is a power of two so the
// in-loop test compiles to a mask.
const CheckEverySteps = 8192

const checkMask = CheckEverySteps - 1

// cancelErr wraps the context's cause so errors.Is(err, context.Canceled)
// (or DeadlineExceeded) holds for callers deciding how to report the abort.
func cancelErr(ctx context.Context, step int) error {
	return fmt.Errorf("sim: run aborted at step %d: %w", step, context.Cause(ctx))
}

// Run drives policy p over the trace with cache size cfg.K.
//
// Semantics follow the paper's model: a requested page must be in cache; on
// a miss with a full cache the policy's Victim is evicted first. Misses are
// counted per tenant on every fetch; evictions per owner of the evicted
// page.
//
// Run never aborts early; use RunContext to bound a run by cancellation or
// deadline.
func Run(tr *trace.Trace, p Policy, cfg Config) (Result, error) {
	return RunContext(context.Background(), tr, p, cfg)
}

// RunContext is Run bounded by ctx: both engines check ctx every
// CheckEverySteps steps (and once before the first request), so a client
// disconnect or per-request deadline stops a multi-million-step replay
// within a few microseconds of work instead of burning CPU to completion.
// On abort it returns a zero Result and an error wrapping context.Cause(ctx).
func RunContext(ctx context.Context, tr *trace.Trace, p Policy, cfg Config) (Result, error) {
	if cfg.K <= 0 {
		return Result{}, errors.New("sim: cache size must be positive")
	}
	if ctx.Err() != nil {
		return Result{}, cancelErr(ctx, 0)
	}
	if op, ok := p.(OfflinePolicy); ok {
		op.Prepare(trace.Index(tr))
	}
	if cfg.Engine == EngineDense && cfg.Observer != nil {
		return Result{}, ErrDenseObserver
	}
	if cfg.Engine != EngineMap && cfg.Observer == nil {
		if dp, ok := p.(DensePolicy); ok {
			if res, handled, err := runDenseView(ctx, tr.Dense(), dp, cfg); handled {
				return res, err
			}
		}
		if cfg.Engine == EngineDense {
			return Result{}, fmt.Errorf("sim: policy %s does not support the dense engine", p.Name())
		}
	}
	return runMap(ctx, tr, p, cfg)
}

// effectiveSteps returns the number of measured (non-warmup) steps.
func effectiveSteps(total, warmup int) int {
	if warmup <= 0 {
		return total
	}
	if warmup >= total {
		return 0
	}
	return total - warmup
}

// ErrDenseObserver rejects a run that pins the dense engine and installs an
// Observer: the dense engine serves requests in batches and emits no
// per-step events, so observed runs take the map engine.
var ErrDenseObserver = errors.New("sim: the dense engine emits no per-step events; observed runs take the map engine (engine auto or map)")

// runMap is the map-backed engine: every policy runs on it, and observed
// runs of dense-capable policies too.
func runMap(ctx context.Context, tr *trace.Trace, p Policy, cfg Config) (Result, error) {
	nTenants := tr.NumTenants()
	res := Result{
		Policy:         p.Name(),
		K:              cfg.K,
		Steps:          tr.Len(),
		EffectiveSteps: effectiveSteps(tr.Len(), cfg.WarmupSteps),
		Misses:         make([]int64, nTenants),
		Evictions:      make([]int64, nTenants),
	}
	done := ctx.Done()
	reported := 0
	c := NewMapCache(p, cfg.K)
	for step, r := range tr.Requests() {
		if step&checkMask == checkMask {
			if done != nil {
				select {
				case <-done:
					return Result{}, cancelErr(ctx, step)
				default:
				}
			}
			if cfg.Progress != nil {
				cfg.Progress(step + 1 - reported)
				reported = step + 1
			}
		}
		hit, victim, owner, err := c.Access(step, r)
		if err != nil {
			return Result{}, err
		}
		warm := step < cfg.WarmupSteps
		if !warm {
			if hit {
				res.Hits++
			} else {
				res.Misses[r.Tenant]++
				if owner >= 0 {
					res.Evictions[owner]++
				}
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(Event{Step: step, Req: r, Miss: !hit, Evicted: victim, EvictedTenant: owner, Warmup: warm})
		}
	}
	if cfg.Progress != nil && tr.Len() > reported {
		cfg.Progress(tr.Len() - reported)
	}
	return res, nil
}

// MapCache is the map engine's step: cache membership in a map, driven
// through the Policy protocol — a hit calls OnHit; a miss asks Victim when
// the cache is full, checks the victim is resident, then calls OnEvict and
// OnInsert. It is the one copy of that protocol: the map engine, the
// interactive engine and the live service's baseline policies, which drive
// a Policy one request at a time outside sim.Run, step through it.
type MapCache struct {
	p        Policy
	k        int
	resident map[trace.PageID]trace.Tenant
}

// NewMapCache returns an empty k-page cache driving p.
func NewMapCache(p Policy, k int) *MapCache {
	return &MapCache{p: p, k: k, resident: make(map[trace.PageID]trace.Tenant, k)}
}

// Access serves request r at step. It reports whether r hit and, when the
// miss evicted a page, the victim and its owner (-1 and -1 otherwise). An
// error means the policy nominated a page that is not cached; the cache is
// then unchanged and the request unserved.
func (c *MapCache) Access(step int, r trace.Request) (hit bool, victim trace.PageID, owner trace.Tenant, err error) {
	if _, ok := c.resident[r.Page]; ok {
		c.p.OnHit(step, r)
		return true, -1, -1, nil
	}
	victim, owner = -1, -1
	if len(c.resident) >= c.k {
		v := c.p.Victim(step, r)
		o, ok := c.resident[v]
		if !ok {
			return false, -1, -1, fmt.Errorf("sim: policy %s returned victim %d not in cache at step %d", c.p.Name(), v, step)
		}
		delete(c.resident, v)
		c.p.OnEvict(step, v)
		victim, owner = v, o
	}
	c.resident[r.Page] = r.Tenant
	c.p.OnInsert(step, r)
	return false, victim, owner, nil
}

// Contains reports whether page p is cached.
func (c *MapCache) Contains(p trace.PageID) bool { _, ok := c.resident[p]; return ok }

// Len returns the number of cached pages.
func (c *MapCache) Len() int { return len(c.resident) }

// Pages returns the cached pages in ascending id order.
func (c *MapCache) Pages() []trace.PageID {
	out := make([]trace.PageID, 0, len(c.resident))
	for p := range c.resident {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// MustRun is Run that panics on error; for tests and examples with
// known-good configurations.
func MustRun(tr *trace.Trace, p Policy, cfg Config) Result {
	res, err := Run(tr, p, cfg)
	if err != nil {
		panic(err)
	}
	return res
}
