package multipool

import (
	"math/rand"
	"reflect"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

func quadCosts(n int) []costfn.Func {
	out := make([]costfn.Func, n)
	for i := range out {
		out[i] = costfn.Monomial{C: 1, Beta: 2}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	costs := quadCosts(2)
	if _, err := New(Config{Costs: costs, Assign: []int{0}}); err == nil {
		t.Error("no pools accepted")
	}
	if _, err := New(Config{PoolSizes: []int{0}, Costs: costs, Assign: []int{0}}); err == nil {
		t.Error("zero pool size accepted")
	}
	if _, err := New(Config{PoolSizes: []int{4}, Costs: costs}); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := New(Config{PoolSizes: []int{4}, Costs: costs, Assign: []int{2}}); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}

func TestSinglePoolMatchesSimEngine(t *testing.T) {
	// One pool with all tenants must reproduce sim.Run with core.Fast in
	// CountMisses mode exactly.
	rng := rand.New(rand.NewSource(5))
	b := trace.NewBuilder()
	for i := 0; i < 600; i++ {
		tn := rng.Intn(3)
		b.Add(trace.Tenant(tn), trace.PageID(tn*100+rng.Intn(8)))
	}
	tr := b.MustBuild()
	costs := quadCosts(3)
	sys, err := New(Config{PoolSizes: []int{6}, Costs: costs, Assign: []int{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.MustRun(tr, core.NewFast(core.Options{Costs: costs, CountMisses: true}), sim.Config{K: 6})
	for i := 0; i < 3; i++ {
		if got.Misses[i] != want.Misses[i] {
			t.Errorf("tenant %d: multipool misses %d != engine %d", i, got.Misses[i], want.Misses[i])
		}
	}
	if got.Migrations != 0 || got.SwitchTotal != 0 {
		t.Errorf("unexpected migrations: %+v", got)
	}
}

func TestPoolsAreIsolated(t *testing.T) {
	// Two tenants in separate pools never evict each other: each gets its
	// pool's capacity regardless of the other's flood.
	b := trace.NewBuilder()
	b.Add(0, 1).Add(0, 2)
	for i := 0; i < 50; i++ {
		b.Add(1, trace.PageID(1000+i))
	}
	b.Add(0, 1).Add(0, 2)
	tr := b.MustBuild()
	costs := quadCosts(2)
	sys, err := New(Config{PoolSizes: []int{2, 2}, Costs: costs, Assign: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses[0] != 2 {
		t.Errorf("tenant 0 misses %d, want 2 (cold only, isolated pool)", res.Misses[0])
	}
}

func TestMigrationDropsCachedPages(t *testing.T) {
	costs := quadCosts(2)
	sys, err := New(Config{PoolSizes: []int{4, 4}, Costs: costs, Assign: []int{0, 1}, SwitchCost: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Warm tenant 0 in pool 0.
	for _, pg := range []trace.PageID{1, 2} {
		if err := sys.Serve(trace.Request{Page: pg, Tenant: 0}); err != nil {
			t.Fatal(err)
		}
	}
	sys.migrate(0, 1)
	if got := sys.Assignment()[0]; got != 1 {
		t.Fatalf("assignment = %d", got)
	}
	// Re-access: must be cold misses in the new pool.
	before := sys.Result().Misses[0]
	for _, pg := range []trace.PageID{1, 2} {
		if err := sys.Serve(trace.Request{Page: pg, Tenant: 0}); err != nil {
			t.Fatal(err)
		}
	}
	res := sys.Result()
	if res.Misses[0] != before+2 {
		t.Errorf("misses after migration = %d, want %d", res.Misses[0], before+2)
	}
	if res.Migrations != 1 || res.SwitchTotal != 3 {
		t.Errorf("migration accounting: %+v", res)
	}
	if res.TotalCost() != res.CacheCost+3 {
		t.Errorf("total cost mismatch")
	}
}

func TestMigrateNoops(t *testing.T) {
	sys, err := New(Config{PoolSizes: []int{2, 2}, Costs: quadCosts(1), Assign: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	sys.migrate(0, 0) // same pool
	sys.migrate(5, 1) // unknown tenant
	sys.migrate(0, 9) // invalid pool
	if sys.Result().Migrations != 0 {
		t.Errorf("no-op migrations counted")
	}
}

func TestBalancedAssign(t *testing.T) {
	a := BalancedAssign(5, 2)
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("assign = %v", a)
		}
	}
}

// phaseTrace builds a workload whose load shifts between tenants so that a
// static assignment becomes unbalanced mid-run.
func phaseTrace(t *testing.T, length int) (*trace.Trace, []costfn.Func) {
	t.Helper()
	// 4 tenants. First half: tenants 0,1 hot. Second half: tenants 2,3 hot.
	mkStream := func(seed int64) workload.Stream {
		z, err := workload.NewZipf(seed, 60, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	half := length / 2
	first, err := workload.Mix(1, []workload.TenantStream{
		{Tenant: 0, Stream: mkStream(10), Rate: 4},
		{Tenant: 1, Stream: mkStream(11), Rate: 4},
		{Tenant: 2, Stream: mkStream(12), Rate: 1},
		{Tenant: 3, Stream: mkStream(13), Rate: 1},
	}, half)
	if err != nil {
		t.Fatal(err)
	}
	second, err := workload.Mix(2, []workload.TenantStream{
		{Tenant: 0, Stream: mkStream(14), Rate: 1},
		{Tenant: 1, Stream: mkStream(15), Rate: 1},
		{Tenant: 2, Stream: mkStream(16), Rate: 4},
		{Tenant: 3, Stream: mkStream(17), Rate: 4},
	}, length-half)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := first.Concat(second)
	if err != nil {
		t.Fatal(err)
	}
	return tr, quadCosts(4)
}

func TestGreedyRebalancerReducesCostOnShiftingLoad(t *testing.T) {
	tr, costs := phaseTrace(t, 12000)
	// Adversarial static assignment: both phase-one hot tenants share pool
	// 0, both phase-two hot tenants share pool 1.
	assign := []int{0, 0, 1, 1}
	static, err := New(Config{PoolSizes: []int{30, 30}, Costs: costs, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := static.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(Config{
		PoolSizes: []int{30, 30}, Costs: costs, Assign: assign,
		SwitchCost: 50, EpochLen: 500,
		Rebalancer: &GreedyRebalancer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dyn.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Migrations == 0 {
		t.Fatal("rebalancer never migrated despite shifting load")
	}
	if dres.TotalCost() >= sres.TotalCost() {
		t.Errorf("rebalancing total cost %.0f not below static %.0f (migrations %d)",
			dres.TotalCost(), sres.TotalCost(), dres.Migrations)
	}
}

func TestSinglePoolBeatsPartitionedPools(t *testing.T) {
	// Statistical multiplexing: one pool of 60 pages should not do worse
	// than two isolated pools of 30 under shifting load.
	tr, costs := phaseTrace(t, 12000)
	single, err := New(Config{PoolSizes: []int{60}, Costs: costs, Assign: []int{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := New(Config{PoolSizes: []int{30, 30}, Costs: costs, Assign: []int{0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := parts.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sres.CacheCost > pres.CacheCost {
		t.Errorf("single pool cost %.0f above partitioned %.0f", sres.CacheCost, pres.CacheCost)
	}
}

func TestServeUnknownTenant(t *testing.T) {
	sys, err := New(Config{PoolSizes: []int{2}, Costs: quadCosts(1), Assign: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Serve(trace.Request{Page: 1, Tenant: 7}); err == nil {
		t.Error("unknown tenant accepted")
	}
}

// TestMigrationDeterministic repeats one migration scenario and requires
// every run to end identically. Migration evicts several of a tenant's pages
// back to back, and each eviction moves the pool's aging counter, so the
// eviction order decides later victims; it must not follow map iteration.
func TestMigrationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := trace.NewBuilder()
	for i := 0; i < 2400; i++ {
		tn := rng.Intn(3)
		b.Add(trace.Tenant(tn), trace.PageID(tn*100+rng.Intn(8)))
	}
	reqs := b.MustBuild().Requests()
	type outcome struct {
		res   Result
		snaps []core.FastSnapshot
	}
	run := func() outcome {
		sys, err := New(Config{PoolSizes: []int{6, 6}, Costs: quadCosts(3), Assign: []int{0, 0, 0}})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if i == 400 {
				sys.migrate(0, 1)
			}
			if err := sys.Serve(r); err != nil {
				t.Fatal(err)
			}
		}
		o := outcome{res: sys.Result()}
		for _, p := range sys.pools {
			o.snaps = append(o.snaps, p.policy.Snapshot())
		}
		return o
	}
	want := run()
	for i := 1; i < 30; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from run 0:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
