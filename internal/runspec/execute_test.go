package runspec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"convexcache/internal/check"
	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// diffInline is the hand-written request sequence of the matrix's inline
// cell: two tenants with disjoint page universes and enough reuse to force
// evictions at small k.
var diffInline = [][2]int64{
	{0, 1}, {1, 101}, {0, 2}, {1, 102}, {0, 3}, {1, 103},
	{0, 1}, {1, 104}, {0, 4}, {1, 101}, {0, 2}, {1, 105},
	{0, 5}, {1, 102}, {0, 1}, {1, 106}, {0, 3}, {1, 103},
	{0, 6}, {1, 101}, {0, 2}, {1, 107}, {0, 1}, {1, 104},
}

// buildDirect reproduces each trace source exactly the way the pre-refactor
// entry points did, bypassing the Scenario planner entirely.
func buildDirect(t *testing.T, kind, dir string) *trace.Trace {
	t.Helper()
	switch kind {
	case "inline":
		b := trace.NewBuilder()
		for _, row := range diffInline {
			b.Add(trace.Tenant(row[0]), trace.PageID(row[1]))
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case "file":
		f, err := os.Open(filepath.Join(dir, "diff.trace"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case "workload":
		// The tracegen seed rule: per-tenant stream seed = seed + i*1001.
		specs := []string{"zipf:40,1.0", "uniform:120:2"}
		var streams []workload.TenantStream
		for i, spec := range specs {
			s, rate, err := workload.ParseStream(spec, 11+int64(i)*1001)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, workload.TenantStream{
				Tenant: trace.Tenant(i), Stream: s, Rate: rate,
			})
		}
		tr, err := workload.Mix(11, streams, 600)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t.Fatalf("unknown trace kind %q", kind)
	return nil
}

// scenarioFor builds the Scenario form of the same cell.
func scenarioFor(kind, dir, policyName, engine string, k int) *Scenario {
	sc := &Scenario{
		Policies: []PolicySpec{{Name: policyName}},
		Costs:    []string{"monomial:1,2", "linear:0.5"},
		K:        k,
		Engine:   engine,
		Seed:     11,
	}
	switch kind {
	case "inline":
		sc.Trace = TraceSpec{Inline: diffInline}
	case "file":
		sc.Trace = TraceSpec{File: "diff.trace"}
		sc.BaseDir = dir
	case "workload":
		sc.Trace = TraceSpec{Workload: &WorkloadSpec{
			Tenants: []TenantSpec{{Stream: "zipf:40,1.0"}, {Stream: "uniform:120:2"}},
			Length:  600,
		}}
	}
	return sc
}

// newDirectPolicy resolves the policy the way pre-refactor callers did.
func newDirectPolicy(t *testing.T, name string, k, tenants int, costs []costfn.Func) sim.Policy {
	t.Helper()
	switch name {
	case "alg":
		return core.NewFast(core.Options{Costs: costs})
	case "alg-ref":
		return core.NewDiscrete(core.Options{Costs: costs})
	}
	p, err := policy.New(name, policy.Spec{K: k, Tenants: tenants, Costs: costs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExecuteMatchesDirectMatrix is the behavior-preservation matrix of the
// run-spec refactor: every (trace kind x policy x engine) cell must produce
// a sim.Result bit-identical to the pre-refactor path — trace built by
// hand, policy resolved by hand, sim.Run with an explicit sim.Config — and
// every cell must pass the internal/check invariant oracle.
func TestExecuteMatchesDirectMatrix(t *testing.T) {
	dir := t.TempDir()
	fileTrace := buildDirect(t, "inline", dir)
	f, err := os.Create(filepath.Join(dir, "diff.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, fileTrace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	const k = 4
	engineOf := map[string]sim.Engine{"auto": sim.EngineAuto, "map": sim.EngineMap, "dense": sim.EngineDense}
	// Engines per policy: the dense loop needs per-tenant eviction support,
	// which only the paper's algorithm implements.
	enginesFor := map[string][]string{
		"alg":     {"auto", "map", "dense"},
		"lru":     {"auto", "map"},
		"alg-ref": {"map"},
	}
	cells := 0
	for _, kind := range []string{"inline", "file", "workload"} {
		for _, policyName := range []string{"alg", "lru", "alg-ref"} {
			for _, engine := range enginesFor[policyName] {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, policyName, engine), func(t *testing.T) {
					cells++
					// Pre-refactor path.
					tr := buildDirect(t, kind, dir)
					costs := []costfn.Func{
						costfn.Monomial{C: 1, Beta: 2},
						costfn.Linear{W: 0.5},
					}
					cfg := sim.Config{K: k, Engine: engineOf[engine]}
					want, err := sim.Run(tr, newDirectPolicy(t, policyName, k, tr.NumTenants(), costs), cfg)
					if err != nil {
						t.Fatal(err)
					}

					// Run-spec path.
					sc := scenarioFor(kind, dir, policyName, engine, k)
					out, err := sc.Execute(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					row := out.Row(policyName, k)
					if row == nil {
						t.Fatalf("no row for %s@k=%d", policyName, k)
					}
					if row.Err != nil {
						t.Fatal(row.Err)
					}
					if !reflect.DeepEqual(row.Result, want) {
						t.Fatalf("results diverge:\n spec   %+v\n direct %+v", row.Result, want)
					}
					if wantCost := want.Cost(costs); row.Cost != wantCost {
						t.Fatalf("cost diverges: spec %v direct %v", row.Cost, wantCost)
					}

					// Oracle: the cell passes the invariant shadow model. Its
					// per-step observer needs the map engine, so a dense cell
					// is checked on the engine that observed runs take.
					ocfg := cfg
					if ocfg.Engine == sim.EngineDense {
						ocfg.Engine = sim.EngineAuto
					}
					if _, err := check.MustPass(tr, newDirectPolicy(t, policyName, k, tr.NumTenants(), costs), ocfg, costs); err != nil {
						t.Fatalf("invariant oracle: %v", err)
					}
				})
			}
		}
	}
	if min := 12; cells < min {
		t.Fatalf("matrix ran %d cells, want >= %d", cells, min)
	}
}

func TestExecuteKSweepAndFlush(t *testing.T) {
	sc := &Scenario{
		Trace: TraceSpec{Workload: &WorkloadSpec{
			Tenants: []TenantSpec{{Stream: "zipf:30,1.0"}},
			Length:  300,
		}},
		Policies: []PolicySpec{{Name: "alg"}, {Name: "lru"}},
		KSweep:   []int{4, 8, 16},
		Seed:     5,
		Flush:    true,
		Workers:  4, // exercise the parallel planner (and the race detector)
	}
	out, err := sc.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Rows); got != 6 {
		t.Fatalf("rows = %d, want 6 (3 sizes x 2 policies)", got)
	}
	if out.RealTenants != 1 || len(out.Costs) != 2 {
		t.Fatalf("flush bookkeeping: real=%d costs=%d", out.RealTenants, len(out.Costs))
	}
	for _, row := range out.Rows {
		if row.Err != nil {
			t.Fatalf("%s@k=%d: %v", row.Policy, row.K, row.Err)
		}
		// The paper's flush construction makes eviction counts equal miss
		// counts for the real tenants.
		if row.Result.Evictions[0] != row.Result.Misses[0] {
			t.Fatalf("%s@k=%d: evictions %d != misses %d after flush",
				row.Policy, row.K, row.Result.Evictions[0], row.Result.Misses[0])
		}
		// The dummy tenant must not contribute to the reported cost.
		if row.Cost != row.Result.Cost(out.Costs[:1]) {
			t.Fatalf("cost includes dummy tenant")
		}
	}
	// A sweep's row results must match single-k executions exactly.
	for _, k := range sc.KSweep {
		single := &Scenario{
			Trace:    sc.Trace,
			Policies: []PolicySpec{{Name: "alg"}},
			K:        k,
			Seed:     5,
			Flush:    true,
		}
		sout, err := single.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sout.Rows[0].Result, out.Row("alg", k).Result) {
			t.Fatalf("k=%d: sweep row diverges from single-k run", k)
		}
	}
}

func TestExecuteObserverChain(t *testing.T) {
	sc := &Scenario{
		Trace: TraceSpec{Inline: diffInline},
		Policies: []PolicySpec{
			{Name: "alg"}, {Name: "lru"},
		},
		K:         4,
		Observers: ObserverSpec{Check: true, Window: 6},
	}
	var events int
	sc.Observer = func(ev sim.Event) { events++ }
	rowObsCalls := map[string]int{}
	sc.RowObserver = func(policy string, k int, tr *trace.Trace) sim.Observer {
		rowObsCalls[policy]++
		return nil
	}
	out, err := sc.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	for _, row := range out.Rows {
		if row.Windows == nil || row.Windows.Windows() == 0 {
			t.Fatalf("%s: no window series collected", row.Policy)
		}
		if len(row.Violations) != 0 {
			t.Fatalf("%s: unexpected violations %v", row.Policy, row.Violations)
		}
	}
	if events == 0 {
		t.Fatal("runtime observer saw no events")
	}
	if rowObsCalls["alg"] != 1 || rowObsCalls["lru"] != 1 {
		t.Fatalf("RowObserver calls = %v, want one per row", rowObsCalls)
	}
}

func TestExecuteFaultObserverInjects(t *testing.T) {
	sc := &Scenario{
		Trace:     TraceSpec{Inline: diffInline},
		Policies:  []PolicySpec{{Name: "lru"}},
		K:         4,
		Observers: ObserverSpec{Fault: "seed=1,panic_p=1.0"},
	}
	out, err := sc.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	err = out.Rows[0].Err
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("row error %v, want injected *sim.PanicError", err)
	}
}

func TestExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := &Scenario{
		Trace:    TraceSpec{Inline: diffInline},
		Policies: []PolicySpec{{Name: "lru"}},
		K:        4,
	}
	out, err := sc.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Rows[0].Err, context.Canceled) {
		t.Fatalf("row error %v, want context.Canceled", out.Rows[0].Err)
	}
}

func TestExecuteSetupErrorsAreSpecErrors(t *testing.T) {
	bad := []*Scenario{
		{Trace: TraceSpec{Inline: diffInline}},                                                // k missing
		{Trace: TraceSpec{Inline: diffInline}, K: 4, Policies: []PolicySpec{{Name: "nope"}}},  // unknown policy
		{Trace: TraceSpec{Inline: diffInline}, K: 4, Costs: []string{"warp:9"}},               // unknown cost spec
		{Trace: TraceSpec{Inline: diffInline}, K: 4, Observers: ObserverSpec{Fault: "bogus"}}, // bad fault spec
		{Trace: TraceSpec{Inline: [][2]int64{{0, 1}, {1, 1}}}, K: 4},                          // page owned by two tenants
	}
	for i, sc := range bad {
		_, err := sc.Execute(context.Background())
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("case %d: error %v is not a *SpecError", i, err)
		}
	}
}

func TestRunHelpersMatchSim(t *testing.T) {
	tr := buildDirect(t, "inline", "")
	want, err := sim.Run(tr, policy.MustNew("lru", policy.Spec{K: 4, Tenants: 2}), sim.Config{K: 4, WarmupSteps: 3, Engine: sim.EngineMap})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(tr, policy.MustNew("lru", policy.Spec{K: 4, Tenants: 2}), 4,
		WithWarmup(3), WithEngine(sim.EngineMap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run diverges from sim.Run:\n %+v\n %+v", got, want)
	}
	var steps int
	if _, err := RunContext(context.Background(), tr, policy.MustNew("lru", policy.Spec{K: 4, Tenants: 2}), 4,
		WithProgress(func(d int) { steps += d })); err != nil {
		t.Fatal(err)
	}
	if steps != tr.Len() {
		t.Fatalf("progress saw %d steps, want %d", steps, tr.Len())
	}
}

func TestScenarioSweepCell(t *testing.T) {
	sc := Scenario{
		Trace: TraceSpec{Workload: &WorkloadSpec{
			Tenants: []TenantSpec{{Stream: "zipf:40,1.0"}, {Stream: "uniform:200:2"}},
			Length:  2000,
		}},
		Policies: []PolicySpec{{Name: "alg"}, {Name: "lru"}},
		Costs:    []string{"monomial:1,2", "linear:0.5"},
		K:        16,
	}
	cell := sc.Cell("ratio", CostRatio("lru", "alg"))
	v1, err := cell.Metric(1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := cell.Metric(2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= 0 || v2 <= 0 {
		t.Fatalf("ratios %v %v not positive", v1, v2)
	}
	if v1 == v2 {
		t.Fatalf("distinct seeds produced identical workloads (ratio %v)", v1)
	}
	again, err := cell.Metric(1)
	if err != nil {
		t.Fatal(err)
	}
	if again != v1 {
		t.Fatalf("same seed not reproducible: %v vs %v", again, v1)
	}
	// The template must be untouched: a later direct Execute still derives
	// its workload seed from the template's own (zero) seed.
	if sc.Trace.Workload.Seed != 0 || sc.Seed != 0 {
		t.Fatalf("template mutated: workload seed %d, scenario seed %d", sc.Trace.Workload.Seed, sc.Seed)
	}
}

// TestExecuteSharded drives the sharded branch of the planner: a sharded
// row must produce the same per-tenant accounting as the identical
// scenario replayed sequentially when shards=1, must be deterministic at
// higher shard counts, and the incompatible-spec combinations must be
// rejected at validation time.
func TestExecuteSharded(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Trace: TraceSpec{Workload: &WorkloadSpec{
				Tenants: []TenantSpec{{Stream: "zipf:300,0.9"}, {Stream: "uniform:200"}},
				Length:  5000,
			}},
			Policies: []PolicySpec{{Name: "alg"}},
			Costs:    []string{"monomial:1,2", "linear:3"},
			K:        64,
			Seed:     9,
		}
	}

	seq, err := base().Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}

	one := base()
	one.Shards = 1
	outOne, err := one.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := outOne.Err(); err != nil {
		t.Fatal(err)
	}
	// Shards <= 1 runs the ordinary engine; identical numbers expected.
	if !reflect.DeepEqual(seq.Rows[0].Result.Misses, outOne.Rows[0].Result.Misses) {
		t.Fatalf("shards=1 misses %v != sequential %v", outOne.Rows[0].Result.Misses, seq.Rows[0].Result.Misses)
	}

	four := base()
	four.Shards = 4
	outA, err := four.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := outA.Err(); err != nil {
		t.Fatal(err)
	}
	outB, err := four.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := outA.Rows[0].Result, outB.Rows[0].Result
	if ra.Hits != rb.Hits || !reflect.DeepEqual(ra.Misses, rb.Misses) || !reflect.DeepEqual(ra.Evictions, rb.Evictions) {
		t.Fatalf("sharded replay not deterministic:\n  a: %+v\n  b: %+v", ra, rb)
	}
	if ra.Steps != 5000 {
		t.Fatalf("sharded Steps = %d, want 5000", ra.Steps)
	}
	if got := ra.Hits + ra.TotalMisses(); got != 5000 {
		t.Fatalf("sharded hits+misses = %d, want 5000", got)
	}

	for name, mut := range map[string]func(*Scenario){
		"map-engine":  func(sc *Scenario) { sc.Engine = "map" },
		"k-too-small": func(sc *Scenario) { sc.K = 3; sc.Shards = 8 },
		"window":      func(sc *Scenario) { sc.Observers.Window = 100 },
		"check":       func(sc *Scenario) { sc.Observers.Check = true },
		"negative":    func(sc *Scenario) { sc.Shards = -1 },
	} {
		sc := base()
		sc.Shards = 4
		mut(sc)
		var spec *SpecError
		if _, err := sc.Execute(context.Background()); !errors.As(err, &spec) {
			t.Fatalf("%s: got %v, want *SpecError", name, err)
		}
	}
}

// TestScenarioShardsWire checks the strict JSON wire form round-trips the
// shards field.
func TestScenarioShardsWire(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"trace":{"inline":[[0,1],[0,2]]},"k":4,"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", sc.Shards)
	}
}
