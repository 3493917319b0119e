package core

import (
	"testing"

	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// TestSnapshotDeterministicTenantOrder is the regression for the snapshot
// nondeterminism found by the internal/check differential oracle: the
// map-backed Snapshot used to walk f.lists in Go map iteration order, so a
// multi-tenant snapshot listed its pages in a different order on every
// process run. Tenants must be walked in ascending id order, matching the
// dense backend.
func TestSnapshotDeterministicTenantOrder(t *testing.T) {
	opt := Options{Costs: []costfn.Func{costfn.Linear{W: 1}, costfn.Linear{W: 2}, costfn.Linear{W: 3}}}
	mk := func() FastSnapshot {
		f := NewFast(opt)
		c := sim.NewMapCache(f, 4)
		for step, r := range []trace.Request{
			{Tenant: 2, Page: 201}, {Tenant: 0, Page: 1}, {Tenant: 1, Page: 101}, {Tenant: 2, Page: 202},
		} {
			if _, _, _, err := c.Access(step, r); err != nil {
				t.Fatal(err)
			}
		}
		return f.Snapshot()
	}
	want := mk()
	for round := 0; round < 20; round++ {
		got := mk()
		for i := range want.Pages {
			if got.Pages[i] != want.Pages[i] {
				t.Fatalf("round %d: page order nondeterministic at %d: %+v vs %+v",
					round, i, got.Pages[i], want.Pages[i])
			}
		}
	}
	for i := 1; i < len(want.Pages); i++ {
		if want.Pages[i].Owner < want.Pages[i-1].Owner {
			t.Fatalf("pages not grouped by ascending tenant: %+v", want.Pages)
		}
	}
}
