package check

import (
	"strings"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/sim"
)

// TestDiffLiveCleanOnWorkloads runs the live-vs-replay oracle over the
// shared workload suite: every seeded trace driven through the in-process
// live service at shard counts 1, 2 and 4 must replay with bit-identical
// per-tenant counters, and the one-shard service must equal sim.Run.
func TestDiffLiveCleanOnWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tr, err := w.Gen(7, 6000)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{4, 64} {
				opt := core.Options{Costs: oracleCosts(tr.NumTenants())}
				div, err := DiffLive(tr, k, func() sim.Policy { return core.NewFast(opt) }, []int{1, 2, 4})
				if err != nil {
					t.Fatal(err)
				}
				if div != nil {
					t.Fatalf("k=%d: %v", k, div)
				}
			}
		})
	}
}

// TestDiffLiveVariants exercises the live oracle under every cost regime the
// engine oracles use (discrete derivative, miss-counting, linear), since the
// live shard drives the dense core's per-request path while the replay
// drives its batched path — the pairing the engines/ family certifies
// through the map engine.
func TestDiffLiveVariants(t *testing.T) {
	tr := smallRandomTrace(3, 3, 12, 4000)
	variants := map[string]core.Options{
		"base":           {Costs: oracleCosts(tr.NumTenants())},
		"discrete-deriv": {Costs: oracleCosts(tr.NumTenants()), UseDiscreteDeriv: true},
		"miss-mode":      {Costs: oracleCosts(tr.NumTenants()), CountMisses: true},
	}
	for name, opt := range variants {
		opt := opt
		t.Run(name, func(t *testing.T) {
			div, err := DiffLive(tr, 24, func() sim.Policy { return core.NewFast(opt) }, []int{1, 2, 4})
			if err != nil {
				t.Fatal(err)
			}
			if div != nil {
				t.Fatal(div)
			}
		})
	}
}

// TestLiveOraclesRegistered pins the live/* family into the oracle matrix so
// cmd/check and the oracle-matrix CI job pick it up automatically.
func TestLiveOraclesRegistered(t *testing.T) {
	found := 0
	for _, o := range Oracles() {
		if strings.HasPrefix(o.Name, "live/") {
			found++
		}
	}
	if found < 4 {
		t.Fatalf("live/* oracles registered: %d, want one per engine variant (>= 4)", found)
	}
}
