package sim

import (
	"errors"

	"convexcache/internal/trace"
)

// CacheView is the read-only view of the online algorithm's cache handed to
// an interactive request source. The lower-bound adversary of Theorem 1.4
// uses it to request exactly the page the algorithm does not hold.
type CacheView interface {
	// Contains reports whether page p is currently cached.
	Contains(p trace.PageID) bool
	// Len returns the number of cached pages.
	Len() int
	// Pages returns the cached pages in ascending id order.
	Pages() []trace.PageID
}

// RequestSource produces the next request, possibly as a function of the
// online algorithm's current cache contents (an adaptive online adversary).
type RequestSource interface {
	// Next returns the request for the given 0-based step.
	Next(step int, cache CacheView) trace.Request
}

// RunInteractive drives policy p for `steps` requests produced online by the
// source, which may inspect the cache before each request. It returns the
// run result and the materialized trace (for replay against offline
// algorithms).
func RunInteractive(src RequestSource, steps int, p Policy, cfg Config) (Result, *trace.Trace, error) {
	if cfg.K <= 0 {
		return Result{}, nil, errors.New("sim: cache size must be positive")
	}
	if steps <= 0 {
		return Result{}, nil, errors.New("sim: interactive run needs positive steps")
	}
	cache := NewMapCache(p, cfg.K)
	b := trace.NewBuilder()
	res := Result{Policy: p.Name(), K: cfg.K, Steps: steps, EffectiveSteps: steps}
	grow := func(tenant trace.Tenant) {
		for int(tenant) >= len(res.Misses) {
			res.Misses = append(res.Misses, 0)
			res.Evictions = append(res.Evictions, 0)
		}
	}
	for step := 0; step < steps; step++ {
		r := src.Next(step, cache)
		b.Add(r.Tenant, r.Page)
		grow(r.Tenant)
		hit, victim, owner, err := cache.Access(step, r)
		if err != nil {
			return Result{}, nil, err
		}
		if hit {
			res.Hits++
		} else {
			res.Misses[r.Tenant]++
			if owner >= 0 {
				grow(owner)
				res.Evictions[owner]++
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(Event{Step: step, Req: r, Miss: !hit, Evicted: victim, EvictedTenant: owner})
		}
	}
	tr, err := b.Build()
	if err != nil {
		return Result{}, nil, err
	}
	return res, tr, nil
}
