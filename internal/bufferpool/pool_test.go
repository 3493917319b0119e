package bufferpool

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/trace"
)

func newPool(t *testing.T, frames, tenants int, rep Replacer, meter *SLAMeter) (*Pool, *Disk) {
	t.Helper()
	disk := &Disk{}
	p, err := New(disk, tenants, Config{Frames: frames, Replacer: rep, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	return p, disk
}

func getRelease(t *testing.T, p *Pool, tn trace.Tenant, pg trace.PageID) {
	t.Helper()
	if err := p.Get(tn, pg, nil); err != nil {
		t.Fatalf("Get(%d,%d): %v", tn, pg, err)
	}
	if err := p.Release(pg); err != nil {
		t.Fatalf("Release(%d): %v", pg, err)
	}
}

func TestDiskDeterministic(t *testing.T) {
	d := &Disk{}
	a := make([]byte, PageSize)
	b := make([]byte, PageSize)
	d.ReadPage(1, 42, a)
	d.ReadPage(1, 42, b)
	if !bytes.Equal(a, b) {
		t.Error("same page read twice differs")
	}
	d.ReadPage(2, 42, b)
	if bytes.Equal(a, b) {
		t.Error("different tenants share page contents")
	}
	if d.Reads() != 3 {
		t.Errorf("reads = %d", d.Reads())
	}
}

func TestPoolHitMissAccounting(t *testing.T) {
	p, disk := newPool(t, 2, 1, NewLRUReplacer(), nil)
	getRelease(t, p, 0, 1)
	getRelease(t, p, 0, 2)
	getRelease(t, p, 0, 1) // hit
	getRelease(t, p, 0, 3) // evicts LRU page 2
	getRelease(t, p, 0, 2) // miss again
	s := p.Stats()
	if s.Misses[0] != 4 || s.Hits[0] != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Resident != 2 {
		t.Errorf("resident = %d", s.Resident)
	}
	if disk.Reads() != 4 {
		t.Errorf("disk reads = %d", disk.Reads())
	}
}

func TestPoolDataIntegrity(t *testing.T) {
	p, _ := newPool(t, 2, 1, NewLRUReplacer(), nil)
	want := make([]byte, PageSize)
	(&Disk{}).ReadPage(0, 7, want)
	got := make([]byte, PageSize)
	if err := p.Get(0, 7, got); err != nil {
		t.Fatal(err)
	}
	defer p.Release(7)
	if !bytes.Equal(got, want) {
		t.Error("page contents differ from disk contents")
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	p, _ := newPool(t, 2, 1, NewLRUReplacer(), nil)
	if err := p.Get(0, 1, nil); err != nil { // pinned
		t.Fatal(err)
	}
	getRelease(t, p, 0, 2)
	// Page 1 is LRU but pinned; eviction must take page 2.
	getRelease(t, p, 0, 3)
	// Page 1 must still be resident: a re-Get is a hit.
	if err := p.Get(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits[0] != 1 {
		t.Errorf("hits = %d, want 1 (pinned page retained)", s.Hits[0])
	}
	p.Release(1)
	p.Release(1)
}

func TestAllPinnedFails(t *testing.T) {
	p, _ := newPool(t, 1, 1, NewLRUReplacer(), nil)
	if err := p.Get(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Get(0, 2, nil); !errors.Is(err, ErrNoEvictable) {
		t.Errorf("got %v, want ErrNoEvictable", err)
	}
	p.Release(1)
}

func TestReleaseErrors(t *testing.T) {
	p, _ := newPool(t, 2, 1, NewLRUReplacer(), nil)
	if err := p.Release(5); err == nil {
		t.Error("release of non-resident page accepted")
	}
	getRelease(t, p, 0, 1)
	if err := p.Release(1); err == nil {
		t.Error("double release accepted")
	}
}

func TestTenantValidation(t *testing.T) {
	p, _ := newPool(t, 2, 1, NewLRUReplacer(), nil)
	if err := p.Get(5, 1, nil); err == nil {
		t.Error("unknown tenant accepted")
	}
	getRelease(t, p, 0, 1)
	// Cross-tenant access to a resident page is rejected. Tenant ids are
	// validated first, so use a two-tenant pool.
	p2, _ := newPool(t, 2, 2, NewLRUReplacer(), nil)
	getRelease(t, p2, 0, 1)
	if err := p2.Get(1, 1, nil); err == nil {
		t.Error("cross-tenant page access accepted")
	}
}

func TestNewValidation(t *testing.T) {
	d := &Disk{}
	if _, err := New(d, 1, Config{Frames: 0, Replacer: NewLRUReplacer()}); err == nil {
		t.Error("0 frames accepted")
	}
	if _, err := New(d, 1, Config{Frames: 2}); err == nil {
		t.Error("nil replacer accepted")
	}
	if _, err := New(d, 0, Config{Frames: 2, Replacer: NewLRUReplacer()}); err == nil {
		t.Error("0 tenants accepted")
	}
}

// TestConvexReplacerTieBreak: equal budgets across tenants go to the
// earliest last touch, the rule core.Fast uses, on every run — not to
// whichever tenant the replacer's map iteration visits first.
func TestConvexReplacerTieBreak(t *testing.T) {
	opt := core.Options{Costs: []costfn.Func{costfn.Linear{W: 1}, costfn.Linear{W: 1}}}
	never := func(trace.PageID) bool { return false }
	for run := 0; run < 200; run++ {
		c := NewConvexReplacer(opt)
		c.Touch(0, trace.Request{Tenant: 0, Page: 1}, false)
		c.Touch(1, trace.Request{Tenant: 1, Page: 101}, false)
		if v, ok := c.Evict(2, trace.Request{Tenant: 0, Page: 2}, never); !ok || v != 1 {
			t.Fatalf("run %d: victim %d (ok=%v), want page 1, the earliest touch", run, v, ok)
		}
		// Re-touch page 101, then insert page 2 after it: the budgets tie
		// again, and the tie now goes the other way.
		c.Touch(3, trace.Request{Tenant: 1, Page: 101}, true)
		c.Touch(4, trace.Request{Tenant: 0, Page: 2}, false)
		if v, ok := c.Evict(5, trace.Request{Tenant: 0, Page: 3}, never); !ok || v != 101 {
			t.Fatalf("run %d: second victim %d (ok=%v), want page 101", run, v, ok)
		}
	}
}

func TestConvexReplacerFavorsSteepTenant(t *testing.T) {
	// Tenant 0 quadratic and already miss-laden, tenant 1 cheap linear:
	// evictions should fall on tenant 1's pages.
	opt := core.Options{Costs: []costfn.Func{
		costfn.Monomial{C: 2, Beta: 2},
		costfn.Linear{W: 0.1},
	}, CountMisses: true}
	p, _ := newPool(t, 4, 2, NewConvexReplacer(opt), nil)
	// Warm with 2 pages each.
	getRelease(t, p, 0, 1)
	getRelease(t, p, 0, 2)
	getRelease(t, p, 1, 101)
	getRelease(t, p, 1, 102)
	// Build up tenant-0 misses to raise its marginal.
	for i := trace.PageID(3); i < 9; i++ {
		getRelease(t, p, 0, i)
	}
	// Now tenant 1 inserts a new page; then tenant 0's hot pages must
	// still largely be resident relative to tenant 1's old ones.
	getRelease(t, p, 1, 103)
	s := p.Stats()
	if s.Misses[0] == 0 || s.Misses[1] == 0 {
		t.Fatalf("vacuous: %+v", s)
	}
	// Re-access the most recent tenant-0 pages: should hit.
	before := p.Stats().Hits[0]
	getRelease(t, p, 0, 8)
	if p.Stats().Hits[0] != before+1 {
		t.Errorf("tenant 0's recent page was evicted despite steep cost")
	}
}

func TestSLAMeterWindows(t *testing.T) {
	costs := []costfn.Func{costfn.Monomial{C: 1, Beta: 2}}
	m, err := NewSLAMeter(4, costs)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: 3 misses in 4 accesses -> refund 9.
	m.Record(0, true)
	m.Record(0, true)
	m.Record(0, false)
	m.Record(0, true)
	if m.Windows() != 1 {
		t.Fatalf("windows = %d", m.Windows())
	}
	if got := m.Refunds()[0]; got != 9 {
		t.Errorf("refund = %g, want 9", got)
	}
	// Partial window: 1 miss in 2 accesses, flushed -> +1.
	m.Record(0, true)
	m.Record(0, false)
	m.Flush()
	if got := m.TotalRefund(); got != 10 {
		t.Errorf("total refund = %g, want 10", got)
	}
	if m.Windows() != 2 {
		t.Errorf("windows = %d, want 2", m.Windows())
	}
	// Flush with nothing pending is a no-op.
	m.Flush()
	if m.Windows() != 2 {
		t.Errorf("extra window after empty flush")
	}
}

func TestSLAMeterValidation(t *testing.T) {
	if _, err := NewSLAMeter(0, []costfn.Func{costfn.Linear{W: 1}}); err == nil {
		t.Error("window=0 accepted")
	}
	if _, err := NewSLAMeter(5, nil); err == nil {
		t.Error("no costs accepted")
	}
}

func TestPoolConcurrentClients(t *testing.T) {
	costs := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2},
		costfn.Linear{W: 1},
		costfn.Linear{W: 3},
	}
	meter, err := NewSLAMeter(64, costs)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Costs: costs, CountMisses: true}
	p, _ := newPool(t, 32, 3, NewConvexReplacer(opt), meter)
	const workers = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, PageSize)
			for i := 0; i < opsPer; i++ {
				tn := trace.Tenant(rng.Intn(3))
				pg := trace.PageID(int64(tn)*1000 + int64(rng.Intn(40)))
				if err := p.Get(tn, pg, buf); err != nil {
					errs <- err
					return
				}
				if err := p.Release(pg); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := p.Stats()
	var total int64
	for i := range s.Hits {
		total += s.Hits[i] + s.Misses[i]
	}
	if total != workers*opsPer {
		t.Errorf("accounted accesses %d != %d", total, workers*opsPer)
	}
	if s.Resident > 32 {
		t.Errorf("resident %d exceeds capacity", s.Resident)
	}
	meter.Flush()
	if meter.TotalRefund() <= 0 {
		t.Error("no refund accumulated despite misses")
	}
}

func TestLRUReplacerWalksPastPinned(t *testing.T) {
	rep := NewLRUReplacer()
	rep.Touch(0, trace.Request{Page: 1, Tenant: 0}, false)
	rep.Touch(1, trace.Request{Page: 2, Tenant: 0}, false)
	// Page 1 is "pinned": victim must be 2.
	v, ok := rep.Evict(2, trace.Request{Page: 3, Tenant: 0}, func(p trace.PageID) bool { return p == 1 })
	if !ok || v != 2 {
		t.Errorf("victim = %d,%v, want 2", v, ok)
	}
	// Everything pinned: no victim.
	if _, ok := rep.Evict(3, trace.Request{Page: 4, Tenant: 0}, func(trace.PageID) bool { return true }); ok {
		t.Error("found victim with everything pinned")
	}
}

func TestReplacersReset(t *testing.T) {
	for _, rep := range []Replacer{
		NewLRUReplacer(),
		NewConvexReplacer(core.Options{Costs: []costfn.Func{costfn.Linear{W: 1}}, CountMisses: true}),
	} {
		rep.Touch(0, trace.Request{Page: 1, Tenant: 0}, false)
		rep.Reset()
		if _, ok := rep.Evict(1, trace.Request{Page: 2, Tenant: 0}, func(trace.PageID) bool { return false }); ok {
			t.Error("victim found after Reset")
		}
	}
}
