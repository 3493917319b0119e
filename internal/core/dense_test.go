package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// denseRunLog captures everything the equivalence properties compare: the
// exact victim sequence and the final per-tenant counters.
type denseRunLog struct {
	victims   []trace.PageID
	misses    []int64
	evictions []int64
}

// runWithLog records a run's victims through an observer, so the run takes
// the map engine: for Fast, the per-request methods.
func runWithLog(t *testing.T, tr *trace.Trace, p sim.Policy, k int) denseRunLog {
	t.Helper()
	var lg denseRunLog
	res, err := sim.Run(tr, p, sim.Config{K: k, Observer: func(ev sim.Event) {
		if ev.Evicted >= 0 {
			lg.victims = append(lg.victims, ev.Evicted)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	lg.misses = res.Misses
	lg.evictions = res.Evictions
	return lg
}

// equalLogs asserts the two runs are bit-exact: identical victims at every
// step and identical per-tenant miss and eviction vectors.
func equalLogs(t *testing.T, name string, a, b denseRunLog) bool {
	t.Helper()
	if len(a.victims) != len(b.victims) {
		t.Errorf("%s: eviction counts differ: %d vs %d", name, len(a.victims), len(b.victims))
		return false
	}
	for i := range a.victims {
		if a.victims[i] != b.victims[i] {
			t.Errorf("%s: victim %d differs: %d vs %d", name, i, a.victims[i], b.victims[i])
			return false
		}
	}
	for i := range a.misses {
		if a.misses[i] != b.misses[i] {
			t.Errorf("%s: tenant %d misses differ: %d vs %d", name, i, a.misses[i], b.misses[i])
			return false
		}
	}
	for i := range a.evictions {
		if a.evictions[i] != b.evictions[i] {
			t.Errorf("%s: tenant %d evictions differ: %d vs %d", name, i, a.evictions[i], b.evictions[i])
			return false
		}
	}
	return true
}

// denseCostSets are the exact-arithmetic cost families used by the dense
// equivalence properties. Coefficients and breakpoints are dyadic rationals
// so budget arithmetic is bit-exact in float64 and "identical victims" is a
// meaningful assertion.
func denseCostSets(t *testing.T) map[string]func(rng *rand.Rand) costfn.Func {
	t.Helper()
	sla, err := costfn.SLARefund(4, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	sla2, err := costfn.SLARefund(8, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(rng *rand.Rand) costfn.Func{
		"monomial": func(rng *rand.Rand) costfn.Func {
			return costfn.Monomial{C: float64(1 + rng.Intn(3)), Beta: float64(2 + rng.Intn(2))}
		},
		"linear": func(rng *rand.Rand) costfn.Func {
			return costfn.Linear{W: float64(1 + rng.Intn(6))}
		},
		"sla-refund": func(rng *rand.Rand) costfn.Func {
			if rng.Intn(2) == 0 {
				return sla
			}
			return sla2
		},
		"mixed": func(rng *rand.Rand) costfn.Func {
			switch rng.Intn(3) {
			case 0:
				return costfn.Monomial{C: 1, Beta: 2}
			case 1:
				return costfn.Linear{W: float64(1 + rng.Intn(4))}
			default:
				return sla
			}
		},
	}
}

// TestDenseFastMatchesDiscreteLargeTraces is the tentpole equivalence
// property: Fast's dense core (slice-backed state, intrusive LRU, cached
// marginals) must be bit-exact against the reference ALG-DISCRETE on large
// random multi-tenant traces in every supported option mode and across all
// cost families, including the piecewise-linear SLA refund — victim by
// victim through the per-request methods, and on the counters through the
// batched dense engine.
func TestDenseFastMatchesDiscreteLargeTraces(t *testing.T) {
	costSets := denseCostSets(t)
	for name, mkCost := range costSets {
		for _, countMisses := range []bool{false, true} {
			for _, discreteDeriv := range []bool{false, true} {
				for seed := int64(0); seed < 6; seed++ {
					rng := rand.New(rand.NewSource(seed*7919 + 13))
					tenants := 2 + rng.Intn(4)
					costs := make([]costfn.Func, tenants)
					for i := range costs {
						costs[i] = mkCost(rng)
					}
					b := trace.NewBuilder()
					length := 3000 + rng.Intn(3000)
					pages := 8 + rng.Intn(24)
					for j := 0; j < length; j++ {
						tn := rng.Intn(tenants)
						b.Add(trace.Tenant(tn), trace.PageID(int64(tn)*1_000_000+int64(rng.Intn(pages))))
					}
					tr := b.MustBuild()
					k := 3 + rng.Intn(30)
					opt := Options{Costs: costs, CountMisses: countMisses, UseDiscreteDeriv: discreteDeriv}
					d := runWithLog(t, tr, NewDiscrete(opt), k)
					f := runWithLog(t, tr, NewFast(opt), k)
					// The batched run emits no victim log; its counters must match.
					res := sim.MustRun(tr, NewFast(opt), sim.Config{K: k, Engine: sim.EngineDense})
					batched := denseRunLog{victims: d.victims, misses: res.Misses, evictions: res.Evictions}
					if !equalLogs(t, name, d, f) || !equalLogs(t, name+"/batched", d, batched) {
						t.Fatalf("costs=%s countMisses=%v discreteDeriv=%v seed=%d k=%d", name, countMisses, discreteDeriv, seed, k)
					}
				}
			}
		}
	}
}

// TestDenseFastUsesDensePath asserts sim.Run actually takes the dense
// engine for Fast, so the equivalence tests above exercise the intended
// code path rather than the map fallback.
func TestDenseFastUsesDensePath(t *testing.T) {
	f := NewFast(Options{})
	tr := randomTrace(3, 2, 6, 200)
	sim.MustRun(tr, f, sim.Config{K: 4})
	if f.d == nil {
		t.Fatal("dense state not initialized: sim.Run fell back to the map engine")
	}
	if f.d != tr.Dense() {
		t.Fatal("dense state bound to a different trace view")
	}
	if len(f.ids) != 0 || len(f.pages) != 0 {
		t.Fatal("direct-drive page map was populated during a dense run")
	}
}

// TestDenseFastQuickEquivalence is the randomized quick-check counterpart:
// arbitrary seeds, sizes and modes, sparse page universes (exercising the
// remap), asserting identical victim sequences and counters.
func TestDenseFastQuickEquivalence(t *testing.T) {
	prop := func(seed int64, kRaw uint8, countMisses, discreteDeriv bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw%10)
		sla, err := costfn.SLARefund(4, 0.25, 4)
		if err != nil {
			return false
		}
		mkCost := func() costfn.Func {
			switch rng.Intn(4) {
			case 0:
				return costfn.Linear{W: float64(1 + rng.Intn(5))}
			case 1:
				return costfn.Monomial{C: float64(1 + rng.Intn(2)), Beta: 2}
			case 2:
				return costfn.Monomial{C: 1, Beta: 3}
			default:
				return sla
			}
		}
		tenants := 2 + rng.Intn(3)
		costs := make([]costfn.Func, tenants)
		for i := range costs {
			costs[i] = mkCost()
		}
		b := trace.NewBuilder()
		for i := 0; i < 400; i++ {
			tn := rng.Intn(tenants)
			// Sparse, widely spaced page ids force the dense remap to do
			// real work.
			b.Add(trace.Tenant(tn), trace.PageID(int64(tn)<<40|int64(rng.Intn(8))<<7))
		}
		tr := b.MustBuild()
		opt := Options{Costs: costs, CountMisses: countMisses, UseDiscreteDeriv: discreteDeriv}
		var dLog, fLog []trace.PageID
		collect := func(out *[]trace.PageID) sim.Observer {
			return func(ev sim.Event) {
				if ev.Evicted >= 0 {
					*out = append(*out, ev.Evicted)
				}
			}
		}
		dRes, err := sim.Run(tr, NewDiscrete(opt), sim.Config{K: k, Observer: collect(&dLog)})
		if err != nil {
			return false
		}
		fRes, err := sim.Run(tr, NewFast(opt), sim.Config{K: k, Observer: collect(&fLog)})
		if err != nil {
			return false
		}
		if len(dLog) != len(fLog) {
			return false
		}
		for i := range dLog {
			if dLog[i] != fLog[i] {
				return false
			}
		}
		for i := range dRes.Misses {
			if dRes.Misses[i] != fRes.Misses[i] || dRes.Evictions[i] != fRes.Evictions[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
