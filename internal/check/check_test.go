package check

import (
	"strings"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// seqTrace builds a trace from (tenant, page) pairs.
func seqTrace(t *testing.T, pairs ...[2]int) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder()
	for _, pr := range pairs {
		b.Add(trace.Tenant(pr[0]), trace.PageID(pr[1]))
	}
	return b.MustBuild()
}

// singleTenant builds a tenant-0 trace from page ids.
func singleTenant(t *testing.T, pages ...int) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder()
	for _, p := range pages {
		b.Add(0, trace.PageID(p))
	}
	return b.MustBuild()
}

// badVictimPolicy wraps LRU but returns a non-resident victim on the n-th
// Victim call — the planted bug the checker must catch.
type badVictimPolicy struct {
	sim.Policy
	calls, badAt int
}

func (b *badVictimPolicy) Victim(step int, r trace.Request) trace.PageID {
	b.calls++
	if b.calls == b.badAt {
		return trace.PageID(1 << 40) // never in any test trace
	}
	return b.Policy.Victim(step, r)
}

func TestWrapCatchesBadVictim(t *testing.T) {
	tr := singleTenant(t, 1, 2, 3, 4, 5, 6)
	bad := &badVictimPolicy{Policy: policy.MustNew("lru", policy.Spec{}), badAt: 2}
	c := Wrap(bad)
	// The engine itself rejects the bogus victim, so the run errors; the
	// wrapper must have recorded the violation first.
	_, err := sim.Run(tr, c, sim.Config{K: 2})
	if err == nil {
		t.Fatal("engine accepted non-resident victim")
	}
	found := false
	for _, v := range c.Violations() {
		if v.Kind == "victim" {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrapper missed the planted victim bug; violations: %v", c.Violations())
	}
}

func TestWrapCleanPoliciesPass(t *testing.T) {
	tr := seqTrace(t, [2]int{0, 1}, [2]int{1, 101}, [2]int{0, 2}, [2]int{0, 1},
		[2]int{1, 102}, [2]int{0, 3}, [2]int{1, 101}, [2]int{0, 1})
	for _, name := range policy.Names() {
		p, err := policy.New(name, policy.Spec{K: 2, Tenants: 2, Seed: 1,
			Costs: []costfn.Func{costfn.Linear{W: 1}, costfn.Linear{W: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		c := Wrap(p)
		if _, err := sim.Run(tr, c, sim.Config{K: 2}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("%s: false positive: %v", name, err)
		}
	}
}

// TestWrapRunsOnMapEngine pins that wrapping hides the dense path — the
// batched engine has no per-request callbacks to check — and that the
// wrapped map-engine run of Fast agrees with its unwrapped dense run.
func TestWrapRunsOnMapEngine(t *testing.T) {
	tr := singleTenant(t, 1, 2, 3, 1, 4, 2, 1)
	if _, err := sim.Run(tr, Wrap(core.NewFast(core.Options{})), sim.Config{K: 2, Engine: sim.EngineDense}); err == nil {
		t.Fatal("wrapped Fast ran on the dense engine")
	}
	c := Wrap(core.NewFast(core.Options{}))
	got, err := sim.Run(tr, c, sim.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("false positive on Fast: %v", err)
	}
	want := sim.MustRun(tr, core.NewFast(core.Options{}), sim.Config{K: 2, Engine: sim.EngineDense})
	if got.Hits != want.Hits || got.TotalMisses() != want.TotalMisses() || got.TotalEvictions() != want.TotalEvictions() {
		t.Fatalf("wrapped map run %+v differs from dense run %+v", got, want)
	}
}

func TestRunInvariantsCleanOnAllPolicies(t *testing.T) {
	tr := smallRandomTrace(3, 3, 6, 400)
	costs := oracleCosts(tr.NumTenants())
	for _, name := range policy.Names() {
		p, err := policy.New(name, policy.Spec{K: 4, Tenants: tr.NumTenants(), Seed: 5, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MustPass(tr, p, sim.Config{K: 4}, costs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunInvariantsWithWarmup(t *testing.T) {
	tr := smallRandomTrace(11, 2, 5, 300)
	costs := oracleCosts(tr.NumTenants())
	res, err := MustPass(tr, core.NewFast(core.Options{Costs: costs}),
		sim.Config{K: 3, WarmupSteps: 100}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveSteps != 200 {
		t.Fatalf("EffectiveSteps = %d, want 200", res.EffectiveSteps)
	}
}

// lyingResultPolicy cannot exist from the outside (the engine owns the
// Result), so the accounting reconciliation is exercised directly.
func TestReconcileFlagsBadAccounting(t *testing.T) {
	tr := singleTenant(t, 1, 2, 1)
	obs := newInvariantObserver(tr, 2, nil)
	res, err := sim.Run(tr, policy.MustNew("lru", policy.Spec{}), sim.Config{K: 2, Observer: obs.observe})
	if err != nil {
		t.Fatal(err)
	}
	res.Hits += 3 // forge the result
	obs.reconcile(res)
	found := false
	for _, v := range obs.violations {
		if v.Kind == "accounting" && strings.Contains(v.Msg, "Hits") {
			found = true
		}
	}
	if !found {
		t.Fatalf("forged hit count not flagged: %v", obs.violations)
	}
}

func TestMonotoneCostViolationDetected(t *testing.T) {
	// A decreasing "cost function" must trip the monotone-cost invariant:
	// the checker guards against non-monotone cost regressions.
	tr := singleTenant(t, 1, 2, 3, 4)
	_, vs, err := Run(tr, policy.MustNew("lru", policy.Spec{}), sim.Config{K: 2},
		[]costfn.Func{decreasingCost{}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range vs {
		if v.Kind == "monotone-cost" {
			found = true
		}
	}
	if !found {
		t.Fatalf("decreasing cost not flagged: %v", vs)
	}
}

// decreasingCost is an intentionally invalid cost function.
type decreasingCost struct{}

func (decreasingCost) Value(x float64) float64 { return -x }
func (decreasingCost) Deriv(x float64) float64 { return -1 }
func (decreasingCost) String() string          { return "decreasing" }

func TestMinimizeTraceShrinksToCore(t *testing.T) {
	// Failure predicate: trace contains at least two requests of page 7 and
	// one of page 9. The minimizer must strip everything else.
	b := trace.NewBuilder()
	for i := 0; i < 200; i++ {
		b.Add(0, trace.PageID(i%30))
	}
	b.Add(0, 7).Add(0, 9).Add(0, 7)
	tr := b.MustBuild()
	fails := func(t *trace.Trace) bool {
		sevens, nines := 0, 0
		for _, r := range t.Requests() {
			if r.Page == 7 {
				sevens++
			}
			if r.Page == 9 {
				nines++
			}
		}
		return sevens >= 2 && nines >= 1
	}
	if !fails(tr) {
		t.Fatal("predicate does not hold on the full trace")
	}
	min := MinimizeTrace(tr, fails)
	if !fails(min) {
		t.Fatal("minimized trace no longer fails")
	}
	if min.Len() != 3 {
		t.Fatalf("minimized to %d requests, want 3", min.Len())
	}
}

func TestTheorem11HoldsOnSmallInstances(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := smallRandomTrace(seed, 2, 5, 30)
		for _, k := range []int{2, 3} {
			rep, err := Theorem11(tr, k, oracleCosts(tr.NumTenants()))
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			if err := Theorem11Violation(rep); err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
		}
	}
}
