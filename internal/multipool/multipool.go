// Package multipool implements the future-work extension sketched in the
// paper's conclusion (Section 5): "the case of multiple memory pools (e.g.,
// each pool corresponds to a single physical server), where each user has
// to be assigned to a single pool, with potentially switching cost incurred
// for migrating users between servers."
//
// Each pool runs the paper's convex-cost algorithm over the tenants
// currently assigned to it. A Rebalancer decides, at epoch boundaries,
// whether to migrate tenants between pools; a migration drops the tenant's
// cached pages (cold restart on the target server) and charges a switching
// cost. Experiment E12 compares a single shared pool, a static multi-pool
// assignment, and greedy rebalancing.
package multipool

import (
	"errors"
	"fmt"
	"slices"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Config configures a multi-pool system.
type Config struct {
	// PoolSizes lists the page capacity of each pool; all must be positive.
	PoolSizes []int
	// Costs holds per-tenant cost functions.
	Costs []costfn.Func
	// Assign maps each tenant to its initial pool index.
	Assign []int
	// SwitchCost is charged per migration.
	SwitchCost float64
	// Rebalancer, when non-nil, is consulted every EpochLen requests.
	Rebalancer Rebalancer
	// EpochLen is the rebalancing period in requests (0 disables).
	EpochLen int
	// AlgOptions tunes the per-pool caching algorithm; Costs is overridden
	// by Config.Costs and CountMisses is forced (pool state must survive
	// migrations without distorting counters).
	AlgOptions core.Options
}

// Rebalancer proposes tenant migrations at epoch boundaries.
type Rebalancer interface {
	// Rebalance inspects the epoch snapshot and returns migrations.
	Rebalance(s Snapshot) []Migration
}

// Migration moves one tenant to a target pool.
type Migration struct {
	// Tenant is the tenant to move.
	Tenant trace.Tenant
	// ToPool is the destination pool index.
	ToPool int
}

// Snapshot summarizes the state handed to a Rebalancer.
type Snapshot struct {
	// Assign is the current tenant-to-pool map.
	Assign []int
	// EpochMisses[i] counts tenant i's misses in the closing epoch.
	EpochMisses []int64
	// TotalMisses[i] counts tenant i's misses overall.
	TotalMisses []int64
	// PoolSizes echoes the configuration.
	PoolSizes []int
	// Costs echoes the tenant cost functions.
	Costs []costfn.Func
	// SwitchCost echoes the migration charge.
	SwitchCost float64
}

// pool is one physical server's cache.
type pool struct {
	size   int
	cache  map[trace.PageID]trace.Tenant
	policy *core.Fast
	step   int
}

// System is a running multi-pool simulation.
type System struct {
	cfg    Config
	pools  []*pool
	assign []int

	misses      []int64
	epochMisses []int64
	served      int
	migrations  int
}

// New validates the configuration and builds the system.
func New(cfg Config) (*System, error) {
	if len(cfg.PoolSizes) == 0 {
		return nil, errors.New("multipool: need at least one pool")
	}
	for j, s := range cfg.PoolSizes {
		if s <= 0 {
			return nil, fmt.Errorf("multipool: pool %d has non-positive size %d", j, s)
		}
	}
	if len(cfg.Assign) == 0 {
		return nil, errors.New("multipool: need an initial assignment")
	}
	for i, j := range cfg.Assign {
		if j < 0 || j >= len(cfg.PoolSizes) {
			return nil, fmt.Errorf("multipool: tenant %d assigned to invalid pool %d", i, j)
		}
	}
	opts := cfg.AlgOptions
	opts.Costs = cfg.Costs
	opts.CountMisses = true
	s := &System{
		cfg:         cfg,
		assign:      append([]int(nil), cfg.Assign...),
		misses:      make([]int64, len(cfg.Assign)),
		epochMisses: make([]int64, len(cfg.Assign)),
	}
	for _, size := range cfg.PoolSizes {
		s.pools = append(s.pools, &pool{
			size:   size,
			cache:  make(map[trace.PageID]trace.Tenant, size),
			policy: core.NewFast(opts),
		})
	}
	return s, nil
}

// Serve processes one request on the owner's pool.
func (s *System) Serve(r trace.Request) error {
	if int(r.Tenant) >= len(s.assign) {
		return fmt.Errorf("multipool: unknown tenant %d", r.Tenant)
	}
	p := s.pools[s.assign[r.Tenant]]
	p.step++
	if _, ok := p.cache[r.Page]; ok {
		p.policy.OnHit(p.step, r)
	} else {
		s.misses[r.Tenant]++
		s.epochMisses[r.Tenant]++
		if len(p.cache) >= p.size {
			victim := p.policy.Victim(p.step, r)
			if _, ok := p.cache[victim]; !ok {
				return fmt.Errorf("multipool: policy returned non-resident victim %d", victim)
			}
			delete(p.cache, victim)
			p.policy.OnEvict(p.step, victim)
		}
		p.cache[r.Page] = r.Tenant
		p.policy.OnInsert(p.step, r)
	}
	s.served++
	if s.cfg.Rebalancer != nil && s.cfg.EpochLen > 0 && s.served%s.cfg.EpochLen == 0 {
		s.runRebalance()
	}
	return nil
}

// runRebalance consults the rebalancer and applies its migrations.
func (s *System) runRebalance() {
	snap := Snapshot{
		Assign:      append([]int(nil), s.assign...),
		EpochMisses: append([]int64(nil), s.epochMisses...),
		TotalMisses: append([]int64(nil), s.misses...),
		PoolSizes:   append([]int(nil), s.cfg.PoolSizes...),
		Costs:       s.cfg.Costs,
		SwitchCost:  s.cfg.SwitchCost,
	}
	for _, m := range s.cfg.Rebalancer.Rebalance(snap) {
		s.migrate(m.Tenant, m.ToPool)
	}
	for i := range s.epochMisses {
		s.epochMisses[i] = 0
	}
}

// migrate moves the tenant, dropping its cached pages on the source pool.
func (s *System) migrate(t trace.Tenant, to int) {
	if int(t) >= len(s.assign) || to < 0 || to >= len(s.pools) {
		return
	}
	from := s.assign[t]
	if from == to {
		return
	}
	p := s.pools[from]
	// Evict in ascending page order: each OnEvict moves the pool's aging
	// counter to the evicted page's budget origin, so the order shows in
	// later victims, and map iteration order would make runs differ.
	var pages []trace.PageID
	for pg, owner := range p.cache {
		if owner == t {
			pages = append(pages, pg)
		}
	}
	slices.Sort(pages)
	for _, pg := range pages {
		delete(p.cache, pg)
		p.policy.OnEvict(p.step, pg)
	}
	s.assign[t] = to
	s.migrations++
}

// Result summarizes a finished run.
type Result struct {
	// Misses is per-tenant fetch counts.
	Misses []int64
	// Migrations counts applied tenant moves.
	Migrations int
	// CacheCost is sum_i f_i(misses_i).
	CacheCost float64
	// SwitchTotal is migrations * SwitchCost.
	SwitchTotal float64
}

// TotalCost is CacheCost + SwitchTotal.
func (r Result) TotalCost() float64 { return r.CacheCost + r.SwitchTotal }

// Run replays a whole trace through the system.
func (s *System) Run(tr *trace.Trace) (Result, error) {
	for _, r := range tr.Requests() {
		if err := s.Serve(r); err != nil {
			return Result{}, err
		}
	}
	return s.Result(), nil
}

// Result snapshots the accumulated accounting.
func (s *System) Result() Result {
	return Result{
		Misses:      append([]int64(nil), s.misses...),
		Migrations:  s.migrations,
		CacheCost:   sim.Cost(s.cfg.Costs, s.misses),
		SwitchTotal: float64(s.migrations) * s.cfg.SwitchCost,
	}
}

// Assignment returns the current tenant-to-pool map.
func (s *System) Assignment() []int { return append([]int(nil), s.assign...) }
