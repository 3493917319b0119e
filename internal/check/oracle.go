package check

import (
	"fmt"
	"math/rand"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// Workload is a named trace generator for the oracle matrix.
type Workload struct {
	// Name identifies the shape in reports.
	Name string
	// Gen builds a trace of the given length from the seed.
	Gen func(seed int64, length int) (*trace.Trace, error)
}

// Workloads returns the shapes the oracle matrix sweeps: skewed reuse,
// scan-with-hot-set (the classic LRU killer), phase-shifting locality, and a
// tiny page universe that maximizes eviction pressure on every code path.
func Workloads() []Workload {
	return []Workload{
		{Name: "zipf-mixed", Gen: func(seed int64, length int) (*trace.Trace, error) {
			z0, err := workload.NewZipf(seed, 400, 0.9)
			if err != nil {
				return nil, err
			}
			z1, err := workload.NewZipf(seed+1, 200, 1.2)
			if err != nil {
				return nil, err
			}
			u2, err := workload.NewUniform(seed+2, 100)
			if err != nil {
				return nil, err
			}
			return workload.Mix(seed, []workload.TenantStream{
				{Tenant: 0, Stream: z0, Rate: 3},
				{Tenant: 1, Stream: z1, Rate: 2},
				{Tenant: 2, Stream: u2, Rate: 1},
			}, length)
		}},
		{Name: "scan-hot", Gen: func(seed int64, length int) (*trace.Trace, error) {
			scan, err := workload.NewScan(300)
			if err != nil {
				return nil, err
			}
			hot, err := workload.NewZipf(seed, 60, 1.1)
			if err != nil {
				return nil, err
			}
			return workload.Mix(seed, []workload.TenantStream{
				{Tenant: 0, Stream: scan, Rate: 1},
				{Tenant: 1, Stream: hot, Rate: 2},
			}, length)
		}},
		{Name: "phase-shift", Gen: func(seed int64, length int) (*trace.Trace, error) {
			h0, err := workload.NewHotSet(seed, 500, 40, 0.9, 2000)
			if err != nil {
				return nil, err
			}
			h1, err := workload.NewHotSet(seed+7, 300, 25, 0.85, 1500)
			if err != nil {
				return nil, err
			}
			return workload.Mix(seed, []workload.TenantStream{
				{Tenant: 0, Stream: h0, Rate: 1},
				{Tenant: 1, Stream: h1, Rate: 1},
			}, length)
		}},
		{Name: "tiny-universe", Gen: func(seed int64, length int) (*trace.Trace, error) {
			// Page universe barely above k so nearly every miss evicts;
			// this is where victim-selection bugs concentrate.
			rng := rand.New(rand.NewSource(seed))
			b := trace.NewBuilder()
			for i := 0; i < length; i++ {
				tn := rng.Intn(3)
				b.Add(trace.Tenant(tn), trace.PageID(tn*100+rng.Intn(7)))
			}
			return b.Build()
		}},
	}
}

// oracleCosts builds a convex per-tenant cost set covering the families the
// paper analyzes: polynomial, linear and SLA-with-refund.
func oracleCosts(n int) []costfn.Func {
	sla, err := costfn.SLARefund(4, 0.25, 4)
	if err != nil {
		panic(err)
	}
	base := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2},
		costfn.Linear{W: 3},
		sla,
	}
	out := make([]costfn.Func, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

// Oracle is one named correctness check over a (trace, k) instance.
type Oracle struct {
	// Name identifies the policy x engine pair or invariant suite.
	Name string
	// Run executes the check; a *Divergence or *Error return carries the
	// step index and (for divergences) the minimized repro.
	Run func(tr *trace.Trace, k int) error
}

// divergeErr adapts a (possibly nil) *Divergence into an error without the
// typed-nil-in-interface trap.
func divergeErr(d *Divergence, err error) error {
	if err != nil {
		return err
	}
	if d != nil {
		return d
	}
	return nil
}

// Oracles returns the full matrix of implementation pairs and invariant
// suites that must hold on every workload. Every entry is deterministic for
// a fixed trace.
func Oracles() []Oracle {
	var out []Oracle

	// The batched dense engine vs the map engine, which drives Fast's
	// per-request methods, for the paper's algorithm under each cost
	// regime: identical counters and identical final state.
	engineVariants := []struct {
		name string
		opt  func(n int) core.Options
	}{
		{"engines/alg-fast", func(n int) core.Options { return core.Options{Costs: oracleCosts(n)} }},
		{"engines/alg-fast-linear", func(n int) core.Options {
			return core.Options{Costs: []costfn.Func{costfn.Linear{W: 1}, costfn.Linear{W: 5}, costfn.Linear{W: 2}}}
		}},
		{"engines/alg-fast-discrete-deriv", func(n int) core.Options {
			return core.Options{Costs: oracleCosts(n), UseDiscreteDeriv: true}
		}},
		{"engines/alg-fast-miss-mode", func(n int) core.Options {
			return core.Options{Costs: oracleCosts(n), CountMisses: true}
		}},
	}
	for _, v := range engineVariants {
		v := v
		out = append(out, Oracle{Name: v.name, Run: func(tr *trace.Trace, k int) error {
			opt := v.opt(tr.NumTenants())
			return divergeErr(DiffEngines(tr, k, func() sim.Policy { return core.NewFast(opt) }))
		}})
		// Sharded replay against sequential replay, same cost regimes.
		out = append(out, Oracle{Name: "sharded/" + v.name[len("engines/"):], Run: func(tr *trace.Trace, k int) error {
			opt := v.opt(tr.NumTenants())
			return divergeErr(DiffSharded(tr, k, func() sim.Policy { return core.NewFast(opt) }, []int{1, 2, 3, 4, 8}))
		}})
		// The live cache service against the offline replay of its own
		// request log, same cost regimes, shard counts 1/2/4.
		out = append(out, Oracle{Name: "live/" + v.name[len("engines/"):], Run: func(tr *trace.Trace, k int) error {
			opt := v.opt(tr.NumTenants())
			return divergeErr(DiffLive(tr, k, func() sim.Policy { return core.NewFast(opt) }, []int{1, 2, 4}))
		}})
	}

	// The incremental victim-argmin cursor against the full scan: the cursor
	// only ever caches a unique strict minimum, so victim selection — and
	// therefore the whole run — must be identical with it disabled. The
	// cursor side is force-armed: the workload suite's tenant counts sit
	// below the auto-enable floor, and scan-vs-scan would prove nothing.
	out = append(out, Oracle{Name: "impl/victim-cursor", Run: func(tr *trace.Trace, k int) error {
		opt := core.Options{Costs: oracleCosts(tr.NumTenants()), ForceVictimCursor: true}
		optNC := opt
		optNC.NoVictimCursor = true
		return divergeErr(DiffPolicies(tr, k,
			func() sim.Policy { return core.NewFast(opt) },
			func() sim.Policy { return core.NewFast(optNC) },
			sim.EngineAuto, sim.EngineAuto))
	}})

	// Crash-and-recover: kill the WAL-backed service at several points (clean
	// crash, mid-rebalance, torn mid-batch write), recover, and require the
	// resurrected state — and the completed run — to be bit-identical to a
	// run that never crashed. One cost regime suffices: recovery replays the
	// same engine step the live path ran, whatever the costs.
	out = append(out, Oracle{Name: "recovery/crash-replay", Run: func(tr *trace.Trace, k int) error {
		opt := core.Options{Costs: oracleCosts(tr.NumTenants())}
		return divergeErr(DiffRecovery(tr, k, func() sim.Policy { return core.NewFast(opt) }, []int{1, 2, 4}))
	}})

	// The streaming MRC estimator against the offline Mattson analysis,
	// through the full live service (partition engine + per-shard samplers).
	// The estimator is cost-independent, so one oracle covers all regimes.
	out = append(out, Oracle{Name: "mrc/live-vs-mattson", Run: func(tr *trace.Trace, k int) error {
		return divergeErr(DiffMRC(tr, k, []int{1, 2, 4}))
	}})

	// core.Fast vs the Figure-3 reference: the reformulated production
	// algorithm must stay bit-exact with the literal paper transcription.
	implVariants := []struct {
		name string
		opt  func(n int) core.Options
	}{
		{"impl/fast-vs-discrete", func(n int) core.Options { return core.Options{Costs: oracleCosts(n)} }},
		{"impl/fast-vs-discrete-discderiv", func(n int) core.Options {
			return core.Options{Costs: oracleCosts(n), UseDiscreteDeriv: true}
		}},
		{"impl/fast-vs-discrete-miss-mode", func(n int) core.Options {
			return core.Options{Costs: oracleCosts(n), CountMisses: true}
		}},
	}
	for _, v := range implVariants {
		v := v
		out = append(out, Oracle{Name: v.name, Run: func(tr *trace.Trace, k int) error {
			opt := v.opt(tr.NumTenants())
			return divergeErr(DiffPolicies(tr, k,
				func() sim.Policy { return core.NewFast(opt) },
				func() sim.Policy { return core.NewDiscrete(opt) },
				sim.EngineAuto, sim.EngineAuto))
		}})
	}

	// Reset-reuse determinism and full invariant suites for every registry
	// baseline (all are deterministic for a fixed seed) plus the paper's
	// algorithm in both implementations.
	for _, name := range policy.Names() {
		name := name
		out = append(out, Oracle{Name: "reset/" + name, Run: func(tr *trace.Trace, k int) error {
			mk := registryFactory(name, tr, k)
			return divergeErr(ResetReuse(tr, k, mk))
		}})
		out = append(out, Oracle{Name: "invariants/" + name, Run: func(tr *trace.Trace, k int) error {
			mk := registryFactory(name, tr, k)
			_, err := MustPass(tr, mk(), sim.ConfigAt(k), oracleCosts(tr.NumTenants()))
			return err
		}})
	}
	out = append(out, Oracle{Name: "invariants/alg-fast", Run: func(tr *trace.Trace, k int) error {
		opt := core.Options{Costs: oracleCosts(tr.NumTenants())}
		_, err := MustPass(tr, core.NewFast(opt), sim.ConfigAt(k), opt.Costs)
		return err
	}})
	out = append(out, Oracle{Name: "invariants/alg-discrete", Run: func(tr *trace.Trace, k int) error {
		opt := core.Options{Costs: oracleCosts(tr.NumTenants())}
		_, err := MustPass(tr, core.NewDiscrete(opt), sim.ConfigAt(k), opt.Costs)
		return err
	}})

	return out
}

// registryFactory builds fresh instances of a registry baseline for tr.
func registryFactory(name string, tr *trace.Trace, k int) func() sim.Policy {
	spec := policy.Spec{
		K:       k,
		Tenants: tr.NumTenants(),
		Costs:   oracleCosts(tr.NumTenants()),
		Seed:    42,
	}
	return func() sim.Policy {
		p, err := policy.New(name, spec)
		if err != nil {
			panic(fmt.Sprintf("check: registry policy %q: %v", name, err))
		}
		return p
	}
}

// MatrixConfig sizes a full oracle-matrix run.
type MatrixConfig struct {
	// Steps is the per-workload trace length.
	Steps int
	// Seed seeds the workload generators.
	Seed int64
	// Ks are the cache sizes swept.
	Ks []int
	// TheoremInstances is the number of small exact-OPT instances checked
	// against Theorem 1.1 (0 disables).
	TheoremInstances int
}

// MatrixResult reports one oracle x workload x k cell.
type MatrixResult struct {
	// Oracle is the check name.
	Oracle string
	// Workload is the trace shape.
	Workload string
	// K is the cache size.
	K int
	// Err is nil on agreement.
	Err error
}

// RunMatrix executes every oracle over every workload shape and cache size,
// invoking report per cell, and stops at the first failing cell, returning
// its error. The Theorem 1.1 suite runs on dedicated small instances.
func RunMatrix(cfg MatrixConfig, report func(MatrixResult)) error {
	if cfg.Steps <= 0 {
		cfg.Steps = 20000
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{4, 64}
	}
	oracles := Oracles()
	for _, w := range Workloads() {
		tr, err := w.Gen(cfg.Seed, cfg.Steps)
		if err != nil {
			return fmt.Errorf("check: workload %s: %w", w.Name, err)
		}
		for _, k := range cfg.Ks {
			for _, o := range oracles {
				res := MatrixResult{Oracle: o.Name, Workload: w.Name, K: k, Err: o.Run(tr, k)}
				if report != nil {
					report(res)
				}
				if res.Err != nil {
					return fmt.Errorf("check: %s on %s (k=%d): %w", o.Name, w.Name, k, res.Err)
				}
			}
		}
	}
	for i := 0; i < cfg.TheoremInstances; i++ {
		seed := cfg.Seed + int64(i)
		tr := smallRandomTrace(seed, 2, 5, 36)
		for _, k := range []int{2, 4} {
			rep, err := Theorem11(tr, k, oracleCosts(tr.NumTenants()))
			res := MatrixResult{Oracle: "theorem/1.1", Workload: fmt.Sprintf("small-%d", seed), K: k}
			if err != nil {
				res.Err = err
			} else {
				res.Err = Theorem11Violation(rep)
			}
			if report != nil {
				report(res)
			}
			if res.Err != nil {
				return fmt.Errorf("check: theorem 1.1 on seed %d (k=%d): %w", seed, k, res.Err)
			}
		}
	}
	return nil
}

// smallRandomTrace builds an exact-OPT-sized instance.
func smallRandomTrace(seed int64, tenants, pagesPer, length int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	for i := 0; i < length; i++ {
		tn := rng.Intn(tenants)
		b.Add(trace.Tenant(tn), trace.PageID(tn*100+rng.Intn(pagesPer)))
	}
	return b.MustBuild()
}
