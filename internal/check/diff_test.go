package check

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

func TestDiffEnginesFastAgrees(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		tr := smallRandomTrace(seed, 3, 8, 800)
		for _, k := range []int{1, 2, 5, 16} {
			opt := core.Options{Costs: oracleCosts(tr.NumTenants())}
			div, err := DiffEngines(tr, k, func() sim.Policy { return core.NewFast(opt) })
			if err != nil {
				t.Fatal(err)
			}
			if div != nil {
				t.Fatalf("seed %d k %d: %v\nrepro:\n%s", seed, k, div, div.ReproString())
			}
		}
	}
}

func TestDiffPoliciesFastVsDiscrete(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		tr := smallRandomTrace(seed, 2, 6, 600)
		opt := core.Options{Costs: oracleCosts(tr.NumTenants())}
		div, err := DiffPolicies(tr, 4,
			func() sim.Policy { return core.NewFast(opt) },
			func() sim.Policy { return core.NewDiscrete(opt) },
			sim.EngineAuto, sim.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("seed %d: %v\nrepro:\n%s", seed, div, div.ReproString())
		}
	}
}

func TestDiffPoliciesDetectsRealDivergence(t *testing.T) {
	// LRU and FIFO genuinely diverge once a hit reorders recency: after
	// 1,2,3 the hit on 1 protects it under LRU but not under FIFO, so the
	// miss on 4 evicts different pages. The noise prefix gives the
	// minimizer something to strip.
	b := trace.NewBuilder()
	for i := 0; i < 50; i++ {
		b.Add(0, trace.PageID(100+i%3))
	}
	for _, p := range []int{1, 2, 3, 1, 4, 1} {
		b.Add(0, trace.PageID(p))
	}
	tr := b.MustBuild()
	mkA := func() sim.Policy { return policy.MustNew("lru", policy.Spec{}) }
	mkB := func() sim.Policy { return policy.MustNew("fifo", policy.Spec{}) }
	div, err := DiffPolicies(tr, 3, mkA, mkB, sim.EngineAuto, sim.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("LRU vs FIFO reported as identical")
	}
	if div.Repro == nil {
		t.Fatal("no minimized repro")
	}
	if div.Repro.Len() > 10 {
		t.Errorf("repro not minimized: %d requests", div.Repro.Len())
	}
	if div.Step < 0 || div.Step >= div.Repro.Len() {
		t.Errorf("divergence step %d out of range for %d-request repro", div.Step, div.Repro.Len())
	}
	// The repro must still diverge when replayed.
	again, err := DiffPolicies(div.Repro, 3, mkA, mkB, sim.EngineAuto, sim.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Fatal("minimized repro does not reproduce the divergence")
	}
	if !strings.Contains(div.ReproString(), "0 ") {
		t.Errorf("ReproString not in trace text format:\n%s", div.ReproString())
	}
}

// TestSnapshotTenantOrderRegression replays the committed minimized repro of
// the snapshot nondeterminism the oracle found: Fast.Snapshot on the map
// backend walked tenants in map iteration order, so multi-tenant snapshots
// reordered their pages. DiffEngines compares the final snapshots of a dense
// and a map-engine run; many rounds make the old map-order behavior
// practically certain to trip.
func TestSnapshotTenantOrderRegression(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot-tenant-order.trace"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Costs: []costfn.Func{costfn.Linear{W: 1}, costfn.Linear{W: 2}}}
	for round := 0; round < 30; round++ {
		div, err := DiffEngines(tr, 3, func() sim.Policy { return core.NewFast(opt) })
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if div != nil {
			t.Fatalf("round %d: %v", round, div)
		}
	}
}

func TestResetReuseCleanOnRegistry(t *testing.T) {
	tr := smallRandomTrace(31, 2, 6, 400)
	for _, name := range policy.Names() {
		mk := registryFactory(name, tr, 4)
		div, err := ResetReuse(tr, 4, mk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if div != nil {
			t.Fatalf("%s: Reset does not restore initial state: %v", name, div)
		}
	}
}

// flipFIFO plants a Reset bug: it runs as FIFO on a fresh instance but as
// LIFO after any Reset — contract-valid either way, just different.
type flipFIFO struct {
	queue   []trace.PageID
	flipped bool
}

func (f *flipFIFO) Name() string                       { return "flip-fifo" }
func (f *flipFIFO) OnHit(step int, r trace.Request)    {}
func (f *flipFIFO) OnInsert(step int, r trace.Request) { f.queue = append(f.queue, r.Page) }
func (f *flipFIFO) Victim(step int, r trace.Request) trace.PageID {
	if f.flipped {
		return f.queue[len(f.queue)-1]
	}
	return f.queue[0]
}
func (f *flipFIFO) OnEvict(step int, p trace.PageID) {
	for i, q := range f.queue {
		if q == p {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return
		}
	}
}
func (f *flipFIFO) Reset() { f.queue = nil; f.flipped = true } // the bug

func TestResetReuseDetectsBrokenReset(t *testing.T) {
	tr := smallRandomTrace(41, 1, 6, 300)
	div, err := ResetReuse(tr, 3, func() sim.Policy { return &flipFIFO{} })
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("broken Reset not detected")
	}
	if div.Repro == nil || !strings.Contains(div.Error(), "divergence") {
		t.Fatalf("divergence not localized: %v", div)
	}
}
