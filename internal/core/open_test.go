package core

import (
	"math/rand"
	"reflect"
	"testing"

	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// openCosts builds a small mixed cost set with exact dyadic coefficients so
// bit-equality assertions are meaningful.
func openCosts(t *testing.T, tenants int, rng *rand.Rand) []costfn.Func {
	t.Helper()
	sla, err := costfn.SLARefund(4, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]costfn.Func, tenants)
	for i := range costs {
		switch rng.Intn(3) {
		case 0:
			costs[i] = costfn.Monomial{C: float64(1 + rng.Intn(2)), Beta: 2}
		case 1:
			costs[i] = costfn.Linear{W: float64(1 + rng.Intn(4))}
		default:
			costs[i] = sla
		}
	}
	return costs
}

// TestOpenMatchesDenseReplay is the open-world core's tentpole property:
// driving Open one request at a time over an incrementally discovered page
// universe must be bit-exact — identical per-request hit/miss/victim
// outcomes and a bit-equal final snapshot — with the closed-world dense
// engine replaying the same sequence from a pre-built trace. So must
// binding each page and serving the stream in runs through Run.
func TestOpenMatchesDenseReplay(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, countMisses := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed*104729 + 7))
			tenants := 2 + rng.Intn(4)
			costs := openCosts(t, tenants, rng)
			opt := Options{Costs: costs, CountMisses: countMisses}
			k := 3 + rng.Intn(20)

			b := trace.NewBuilder()
			length := 2000 + rng.Intn(2000)
			pagesPer := 6 + rng.Intn(20)
			for j := 0; j < length; j++ {
				tn := rng.Intn(tenants)
				b.Add(trace.Tenant(tn), trace.PageID(int64(tn)*1000+int64(rng.Intn(pagesPer))))
			}
			tr := b.MustBuild()

			// Closed-world reference: the batched dense engine over Fast.
			f := NewFast(opt)
			res, err := sim.Run(tr, f, sim.Config{K: k, Engine: sim.EngineDense})
			if err != nil {
				t.Fatal(err)
			}

			// Open-world run over the raw request stream.
			o, err := NewOpen(opt, tenants, k, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			misses := make([]int64, tenants)
			evictions := make([]int64, tenants)
			hits := 0
			for _, r := range tr.Requests() {
				hit, vo, err := o.Access(r.Page, r.Tenant)
				if err != nil {
					t.Fatal(err)
				}
				if hit {
					hits++
					continue
				}
				misses[r.Tenant]++
				if vo >= 0 {
					evictions[vo]++
				}
			}

			if int64(hits) != res.Hits {
				t.Fatalf("seed=%d countMisses=%v: hits %d vs dense %d", seed, countMisses, hits, res.Hits)
			}
			for i := 0; i < tenants; i++ {
				if misses[i] != res.Misses[i] {
					t.Fatalf("seed=%d: tenant %d misses %d vs dense %d", seed, i, misses[i], res.Misses[i])
				}
				if evictions[i] != res.Evictions[i] {
					t.Fatalf("seed=%d: tenant %d evictions %d vs dense %d", seed, i, evictions[i], res.Evictions[i])
				}
			}
			sOpen, sFast := o.Snapshot(), f.Snapshot()
			if !reflect.DeepEqual(sOpen, sFast) {
				t.Fatalf("seed=%d countMisses=%v: final snapshots differ\nopen: %+v\nfast: %+v",
					seed, countMisses, sOpen, sFast)
			}

			// The same stream bound page by page and served in runs of
			// random length through Run, the batched path.
			ob, err := NewOpen(opt, tenants, k, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			bc := sim.BatchCounters{Misses: make([]int64, tenants), Evictions: make([]int64, tenants)}
			var run []int32
			for j, r := range tr.Requests() {
				ix, err := ob.Bind(r.Page, r.Tenant)
				if err != nil {
					t.Fatal(err)
				}
				if run = append(run, ix); j == tr.Len()-1 || rng.Intn(100) == 0 {
					if err := ob.Run(run, &bc); err != nil {
						t.Fatal(err)
					}
					run = run[:0]
				}
			}
			if bc.Hits != res.Hits || !reflect.DeepEqual(bc.Misses, res.Misses) || !reflect.DeepEqual(bc.Evictions, res.Evictions) {
				t.Fatalf("seed=%d countMisses=%v: Run counted %+v, dense %+v", seed, countMisses, bc, res)
			}
			if sRun := ob.Snapshot(); !reflect.DeepEqual(sRun, sFast) {
				t.Fatalf("seed=%d countMisses=%v: Run's final snapshot differs\nrun:  %+v\nfast: %+v",
					seed, countMisses, sRun, sFast)
			}
		}
	}
}

// TestOpenResidueClassValidation pins the slot mapping's input validation:
// ids outside the residue class, tenant range violations, and owner
// mismatches are rejected as errors rather than silently remapped.
func TestOpenResidueClassValidation(t *testing.T) {
	o, err := NewOpen(Options{}, 2, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Access(5, 0); err != nil {
		t.Fatalf("in-class page rejected: %v", err)
	}
	if _, _, err := o.Access(6, 0); err == nil {
		t.Fatal("page 6 accepted by residue class 1 mod 4")
	}
	if _, _, err := o.Access(0, 0); err == nil {
		t.Fatal("page 0 accepted by residue class 1 mod 4")
	}
	if _, _, err := o.Access(5, 1); err == nil {
		t.Fatal("owner mismatch accepted")
	}
	if _, _, err := o.Access(9, 2); err == nil {
		t.Fatal("out-of-range tenant accepted")
	}
	if _, _, err := o.Access(9, -1); err == nil {
		t.Fatal("negative tenant accepted")
	}

	if _, err := NewOpen(Options{}, 2, 4, 4, 4); err == nil {
		t.Fatal("base == stride accepted")
	}
	if _, err := NewOpen(Options{}, 2, 4, 0, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, err := NewOpen(Options{}, 0, 4, 1, 0); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if _, err := NewOpen(Options{}, 2, 0, 1, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// TestOpenSinglePageTenants exercises the degenerate single-page-per-tenant
// shape: every tenant cycles through one page, so hits always land on a
// single-element list (the tailAge refresh branch) and evictions always
// empty a list. The run must match the closed-world engine bit-exactly.
func TestOpenSinglePageTenants(t *testing.T) {
	tenants := 4
	opt := Options{Costs: []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2},
		costfn.Linear{W: 2},
		costfn.Monomial{C: 2, Beta: 2},
		costfn.Linear{W: 1},
	}}
	rng := rand.New(rand.NewSource(99))
	b := trace.NewBuilder()
	type req struct {
		p trace.PageID
		t trace.Tenant
	}
	var reqs []req
	for j := 0; j < 2000; j++ {
		tn := rng.Intn(tenants)
		// One page per tenant; k < tenants forces constant eviction churn.
		b.Add(trace.Tenant(tn), trace.PageID(tn))
		reqs = append(reqs, req{trace.PageID(tn), trace.Tenant(tn)})
	}
	tr := b.MustBuild()
	k := 2

	f := NewFast(opt)
	res, err := sim.Run(tr, f, sim.Config{K: k, Engine: sim.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOpen(opt, tenants, k, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range reqs {
		h, _, err := o.Access(r.p, r.t)
		if err != nil {
			t.Fatal(err)
		}
		if h {
			hits++
		}
	}
	if int64(hits) != res.Hits {
		t.Fatalf("hits %d vs dense %d", hits, res.Hits)
	}
	if !reflect.DeepEqual(o.Snapshot(), f.Snapshot()) {
		t.Fatal("final snapshots differ")
	}
}

// TestVictimCursorMatchesFullScan is the satellite differential property:
// with the incremental victim cursor enabled (the default) and disabled
// (Options.NoVictimCursor), victim selection must be identical — the cursor
// only ever caches a UNIQUE strict argmin, so it can never disagree with
// the full scan's tie-broken answer. Runs Fast's per-request methods (victim
// by victim), the batched dense engine (counters and final state) and the
// open-world Access path across cost families and counter modes.
func TestVictimCursorMatchesFullScan(t *testing.T) {
	costSets := denseCostSets(t)
	for name, mkCost := range costSets {
		for _, countMisses := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed*6151 + 17))
				tenants := 2 + rng.Intn(4)
				costs := make([]costfn.Func, tenants)
				for i := range costs {
					costs[i] = mkCost(rng)
				}
				b := trace.NewBuilder()
				length := 4000
				pages := 6 + rng.Intn(24)
				for j := 0; j < length; j++ {
					tn := rng.Intn(tenants)
					b.Add(trace.Tenant(tn), trace.PageID(int64(tn)*1_000_000+int64(rng.Intn(pages))))
				}
				tr := b.MustBuild()
				k := 3 + rng.Intn(24)
				opt := Options{Costs: costs, CountMisses: countMisses, ForceVictimCursor: true}
				optNC := opt
				optNC.NoVictimCursor = true
				cur := runWithLog(t, tr, NewFast(opt), k)
				ref := runWithLog(t, tr, NewFast(optNC), k)
				if !equalLogs(t, name+"/cursor-vs-scan", cur, ref) {
					t.Fatalf("costs=%s countMisses=%v seed=%d k=%d", name, countMisses, seed, k)
				}
				fc, fn := NewFast(opt), NewFast(optNC)
				rc := sim.MustRun(tr, fc, sim.Config{K: k, Engine: sim.EngineDense})
				rn := sim.MustRun(tr, fn, sim.Config{K: k, Engine: sim.EngineDense})
				if !reflect.DeepEqual(rc, rn) || !reflect.DeepEqual(fc.Snapshot(), fn.Snapshot()) {
					t.Fatalf("batched cursor diverged: costs=%s countMisses=%v seed=%d k=%d", name, countMisses, seed, k)
				}

				oc, err := NewOpen(opt, tenants, k, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				on, err := NewOpen(optNC, tenants, k, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tr.Requests() {
					h1, v1, err1 := oc.Access(r.Page, r.Tenant)
					h2, v2, err2 := on.Access(r.Page, r.Tenant)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if h1 != h2 || v1 != v2 {
						t.Fatalf("open-world cursor diverged: costs=%s seed=%d", name, seed)
					}
				}
				if !reflect.DeepEqual(oc.Snapshot(), on.Snapshot()) {
					t.Fatalf("open-world cursor snapshots differ: costs=%s seed=%d", name, seed)
				}
			}
		}
	}
}
