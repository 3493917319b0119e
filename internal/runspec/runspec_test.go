package runspec

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// validScenario is a minimal runnable scenario for mutation in tests.
func validScenario() Scenario {
	return Scenario{
		Trace: TraceSpec{Inline: [][2]int64{{0, 1}, {0, 2}, {0, 1}}},
		K:     2,
	}
}

func TestValidateDefaults(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		check  func(t *testing.T, sc *Scenario)
	}{
		{
			name:   "empty policy list selects the canonical pair",
			mutate: func(sc *Scenario) { sc.Policies = nil },
			check: func(t *testing.T, sc *Scenario) {
				want := []PolicySpec{{Name: "alg"}, {Name: "lru"}}
				if len(sc.Policies) != 2 || sc.Policies[0] != want[0] || sc.Policies[1] != want[1] {
					t.Fatalf("default policies = %+v, want %+v", sc.Policies, want)
				}
			},
		},
		{
			name:   "explicit policies survive untouched",
			mutate: func(sc *Scenario) { sc.Policies = []PolicySpec{{Name: "lfu"}} },
			check: func(t *testing.T, sc *Scenario) {
				if len(sc.Policies) != 1 || sc.Policies[0].Name != "lfu" {
					t.Fatalf("policies = %+v, want [lfu]", sc.Policies)
				}
			},
		},
		{
			name:   "engine defaults to auto (empty accepted)",
			mutate: func(sc *Scenario) { sc.Engine = "" },
			check: func(t *testing.T, sc *Scenario) {
				if _, ok := engines[sc.Engine]; !ok {
					t.Fatalf("engine %q not resolvable", sc.Engine)
				}
			},
		},
		{
			name: "workload seed defers to scenario seed",
			mutate: func(sc *Scenario) {
				sc.Trace = TraceSpec{Workload: &WorkloadSpec{
					Tenants: []TenantSpec{{Stream: "zipf:10,1.0"}},
					Length:  100,
				}}
				sc.Seed = 7
			},
			check: func(t *testing.T, sc *Scenario) {
				if sc.Trace.Workload.Seed != 7 {
					t.Fatalf("workload seed = %d, want 7 (deferred)", sc.Trace.Workload.Seed)
				}
			},
		},
		{
			name: "pinned workload seed wins over scenario seed",
			mutate: func(sc *Scenario) {
				sc.Trace = TraceSpec{Workload: &WorkloadSpec{
					Tenants: []TenantSpec{{Stream: "zipf:10,1.0"}},
					Length:  100,
					Seed:    3,
				}}
				sc.Seed = 7
			},
			check: func(t *testing.T, sc *Scenario) {
				if sc.Trace.Workload.Seed != 3 {
					t.Fatalf("workload seed = %d, want pinned 3", sc.Trace.Workload.Seed)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScenario()
			tc.mutate(&sc)
			if err := sc.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			tc.check(t, &sc)
		})
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantSub string
	}{
		{"no trace source", func(sc *Scenario) { sc.Trace = TraceSpec{} }, "trace source required"},
		{"two trace sources", func(sc *Scenario) { sc.Trace.File = "x.txt" }, "exactly one trace source"},
		{"duplicate policy", func(sc *Scenario) {
			sc.Policies = []PolicySpec{{Name: "alg"}, {Name: "alg", DiscreteDeriv: true}}
		}, `duplicate policy "alg"`},
		{"empty policy name", func(sc *Scenario) { sc.Policies = []PolicySpec{{Name: "  "}} }, "empty policy name"},
		{"k unset", func(sc *Scenario) { sc.K = 0 }, "k must be positive"},
		{"k and k_sweep", func(sc *Scenario) { sc.KSweep = []int{4, 8} }, "mutually exclusive"},
		{"bad sweep entry", func(sc *Scenario) { sc.K = 0; sc.KSweep = []int{4, 0} }, "k_sweep entry"},
		{"unknown engine", func(sc *Scenario) { sc.Engine = "gpu" }, `unknown engine "gpu"`},
		{"negative warmup", func(sc *Scenario) { sc.Warmup = -1 }, "warmup must be non-negative"},
		{"negative window", func(sc *Scenario) { sc.Observers.Window = -5 }, "window must be non-negative"},
		{"dense engine with observer", func(sc *Scenario) {
			sc.Engine = "dense"
			sc.Observers.Window = 10
		}, "dense engine and observers are mutually exclusive"},
		{"workload without tenants", func(sc *Scenario) {
			sc.Trace = TraceSpec{Workload: &WorkloadSpec{Length: 10}}
		}, "at least one tenant stream"},
		{"workload without length", func(sc *Scenario) {
			sc.Trace = TraceSpec{Workload: &WorkloadSpec{Tenants: []TenantSpec{{Stream: "scan:5"}}}}
		}, "length must be positive"},
		{"format on inline source", func(sc *Scenario) { sc.Trace.Format = "binary" }, "file source only"},
		{"unknown format", func(sc *Scenario) {
			sc.Trace = TraceSpec{File: "x", Format: "xml"}
		}, "unknown trace format"},
		{"block-csv without file", func(sc *Scenario) { sc.Trace.Format = "block-csv" }, "requires a file source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScenario()
			tc.mutate(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", sc)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *SpecError", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseScenarioStrict(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"k": 4, "polcies": ["alg"]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseScenario([]byte(`{"k": 4} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	sc, err := ParseScenario([]byte(`{
		"trace": {"workload": {"tenants": ["zipf:100,0.9:2", {"stream": "scan:50", "seed": 5}], "length": 1000}},
		"policies": ["lru", {"name": "alg", "discrete_deriv": true}],
		"k": 32
	}`))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	w := sc.Trace.Workload
	if w == nil || len(w.Tenants) != 2 {
		t.Fatalf("workload = %+v", w)
	}
	if w.Tenants[0].Stream != "zipf:100,0.9:2" || w.Tenants[0].Seed != nil {
		t.Fatalf("tenant 0 = %+v", w.Tenants[0])
	}
	if w.Tenants[1].Seed == nil || *w.Tenants[1].Seed != 5 {
		t.Fatalf("tenant 1 = %+v", w.Tenants[1])
	}
	if sc.Policies[0].Name != "lru" || !sc.Policies[1].DiscreteDeriv {
		t.Fatalf("policies = %+v", sc.Policies)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	// Optionless specs marshal to the compact string form and survive a
	// round trip; option-bearing specs keep the object form.
	seed := int64(9)
	sc := Scenario{
		Name: "rt",
		Trace: TraceSpec{Workload: &WorkloadSpec{
			Tenants: []TenantSpec{{Stream: "zipf:10,1.0"}, {Stream: "scan:5", Seed: &seed}},
			Length:  50,
		}},
		Policies: []PolicySpec{{Name: "lru"}, {Name: "alg", CountMisses: true}},
		K:        8,
	}
	data, err := json.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"zipf:10,1.0"`) {
		t.Fatalf("optionless tenant not compact: %s", data)
	}
	if !strings.Contains(string(data), `"lru"`) {
		t.Fatalf("optionless policy not compact: %s", data)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("round trip not a fixed point:\n%s\n%s", data, data2)
	}
}

func TestBuildCostsSurplusAndFlush(t *testing.T) {
	sc := Scenario{Costs: []string{"linear:2", "linear:3", "linear:4"}}
	if _, err := sc.BuildCosts(2, 2); err == nil {
		t.Fatal("surplus cost specs accepted")
	}
	// Explicit specs may override the dummy flush tenant's cost.
	costs, err := sc.BuildCosts(3, 2)
	if err != nil {
		t.Fatalf("BuildCosts: %v", err)
	}
	if got := costs[2].Value(10); got != 40 {
		t.Fatalf("flush-tenant override: f(10) = %v, want 40", got)
	}
	// Without an override the dummy tenant gets the flush cost: far beyond
	// any real tenant's cost at the same occupancy.
	sc2 := Scenario{Costs: []string{"linear:2"}}
	costs2, err := sc2.BuildCosts(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if costs2[2].Value(1) <= costs2[0].Value(1000) {
		t.Fatalf("dummy tenant cost %v not dominant", costs2[2].Value(1))
	}
}

func TestCompilePoliciesErrors(t *testing.T) {
	sc := validScenario()
	sc.Policies = []PolicySpec{{Name: "lru", DiscreteDeriv: true}}
	if _, err := sc.CompilePolicies(4, 1, nil); err == nil {
		t.Fatal("algorithm options on lru accepted")
	}
	sc.Policies = []PolicySpec{{Name: "no-such-policy"}}
	_, err := sc.CompilePolicies(4, 1, nil)
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("unknown policy error %v is not a *SpecError", err)
	}
}

func TestPolicyNamesCoverRegistry(t *testing.T) {
	names := PolicyNames()
	want := map[string]bool{"alg": false, "alg-ref": false, "lru": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("PolicyNames() missing %q (got %v)", n, names)
		}
	}
}
