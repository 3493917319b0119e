package cached

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"convexcache/internal/analysis"
	"convexcache/internal/costfn"
	"convexcache/internal/mrclive"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// streamOrDie adapts a workload constructor's (stream, error) pair for use
// inside tests: pass the constructor call as the sole argument.
func streamOrDie(t *testing.T) func(workload.Stream, error) workload.Stream {
	return func(s workload.Stream, err error) workload.Stream {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// evenSplit is the static baseline: k pages divided as evenly as possible
// across tenants (the same rule sim.ShardShare applies to shard capacity).
func evenSplit(k, tenants int) []int {
	q := make([]int, tenants)
	for t := range q {
		q[t] = k / tenants
		if t < k%tenants {
			q[t]++
		}
	}
	return q
}

func newPartitionService(t *testing.T, k, shards, tenants int, mrc *mrclive.Config, costs []costfn.Func, floor int) *Service {
	t.Helper()
	svc, err := New(Config{
		K: k, Shards: shards, Tenants: tenants,
		Quotas:       evenSplit(k, tenants),
		MRC:          mrc,
		Costs:        costs,
		ReserveFloor: floor,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestNewRejectsBadMRCConfig pins the one place the estimator config is
// checked, the shard's own sampler construction: an invalid config fails New
// before anything is written under the WAL directory, a log segment least
// of all.
func TestNewRejectsBadMRCConfig(t *testing.T) {
	dir := t.TempDir()
	_, err := New(Config{
		K: 64, Shards: 2, Tenants: 2,
		Quotas: evenSplit(64, 2),
		MRC:    &mrclive.Config{Rate: 2},
		WAL:    &WALConfig{Dir: dir, Fsync: FsyncOff},
	})
	if err == nil || !strings.Contains(err.Error(), "mrc config") {
		t.Fatalf("New with sampling rate 2: err = %v, want an mrc config error", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("failed New left %s in the WAL directory", e.Name())
	}
}

// TestStatsSnapshotBarrierUnderLoad is the snapshot-atomicity hammer: every
// writer sends fixed-size single-tenant batches, so any Stats() observation
// taken concurrently must see each tenant's request count as a whole number
// of batches — a torn snapshot (some shards of an in-flight batch counted,
// others not) shows up as a remainder. The conservation invariant
// hits+misses == requests must also hold per tenant in every observation.
func TestStatsSnapshotBarrierUnderLoad(t *testing.T) {
	const (
		tenants   = 3
		batchSize = 64
		batches   = 120
		writers   = 4
	)
	svc := newTestService(t, 48, 4, tenants)

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				tn := trace.Tenant((w + b) % tenants)
				reqs := make([]Request, batchSize)
				for i := range reqs {
					// Keys vary per request so every batch spreads over
					// all shards — the case a torn snapshot would split.
					reqs[i] = Request{Op: OpGet, Tenant: tn,
						Key: fmt.Appendf(nil, "w%d-b%d-i%d", w, b, i)}
				}
				if _, err := svc.Apply(reqs); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}()
	}

	var observations int
	go func() {
		wg.Wait()
		done.Store(true)
	}()
	for !done.Load() {
		st := svc.Stats()
		observations++
		for _, ts := range st.PerTenant {
			if ts.Requests%batchSize != 0 {
				t.Fatalf("torn snapshot: tenant %d requests=%d not a multiple of batch size %d",
					ts.Tenant, ts.Requests, batchSize)
			}
			if ts.Hits+ts.Misses != ts.Requests {
				t.Fatalf("conservation violated: tenant %d hits=%d misses=%d requests=%d",
					ts.Tenant, ts.Hits, ts.Misses, ts.Requests)
			}
		}
		if st.Hits+st.Misses != st.Requests {
			t.Fatalf("conservation violated: hits=%d misses=%d requests=%d",
				st.Hits, st.Misses, st.Requests)
		}
	}
	wg.Wait()
	st := svc.Stats()
	if want := int64(writers * batches * batchSize); st.Requests != want {
		t.Fatalf("final requests = %d, want %d", st.Requests, want)
	}
	if observations == 0 {
		t.Fatal("no concurrent Stats observations")
	}
}

// TestPartitionVerifyAcrossShards drives the quota-partition engine at
// several shard counts with two mid-stream quota changes and requires the
// live-vs-replay differential to be bit-exact: the replay re-applies each
// control entry at its logged position.
func TestPartitionVerifyAcrossShards(t *testing.T) {
	const k, tenants = 48, 3
	reqs := genRequests(17, tenants, 200, 9000)
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := newPartitionService(t, k, shards, tenants, nil, nil, 0)
			applyAll(t, svc, reqs[:3000], 512)
			if err := svc.SetQuotas([]int{40, 4, 4}); err != nil {
				t.Fatal(err)
			}
			applyAll(t, svc, reqs[3000:6000], 512)
			if err := svc.SetQuotas([]int{4, 40, 4}); err != nil {
				t.Fatal(err)
			}
			applyAll(t, svc, reqs[6000:], 512)
			rep, err := svc.Verify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean {
				t.Fatalf("partition replay diverged: %v", rep.Diffs)
			}
			if rep.Policy != "quota-partition" {
				t.Fatalf("policy label = %q", rep.Policy)
			}
			st := svc.Stats()
			if len(st.Quotas) != tenants || st.Quotas[1] != 40 {
				t.Fatalf("stats quotas = %v, want last installed vector", st.Quotas)
			}
		})
	}
}

// TestMRCLiveMatchesOfflineMattson is the end-to-end estimator accuracy
// bound of the issue: the merged live curves from a sharded service (the
// shard partition is the only sampling layer at rate 1) must match the
// offline per-tenant Mattson analysis of the same request stream within 5
// percentage points of miss ratio at every sampled capacity.
func TestMRCLiveMatchesOfflineMattson(t *testing.T) {
	const (
		tenants = 2
		length  = 60000
		maxSize = 320
	)
	b := trace.NewBuilder()
	must := streamOrDie(t)
	streams := []workload.Stream{
		must(workload.NewMarkov(5, 2500, 0.55, 50)),
		must(workload.NewZipf(11, 1200, 0.8)),
	}
	for i := 0; i < length; i++ {
		tn := i % tenants
		b.Add(trace.Tenant(tn), workload.PageOf(trace.Tenant(tn), streams[tn].Next()))
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := analysis.PerTenant(tr, maxSize)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := newPartitionService(t, 512, shards, tenants, &mrclive.Config{
				MaxSize:       maxSize,
				Rate:          1,
				WindowEpochs:  2,
				EpochRequests: length + 1,
			}, nil, 0)
			reqs := make([]Request, tr.Len())
			for i, r := range tr.Requests() {
				reqs[i] = Request{Op: OpGet, Tenant: r.Tenant, Key: fmt.Appendf(nil, "p%d", r.Page)}
			}
			applyAll(t, svc, reqs, 1024)
			live, err := svc.MRCLive()
			if err != nil {
				t.Fatal(err)
			}
			for tn, c := range live.Tenants {
				if c.Requests != ref[tn].Requests {
					t.Fatalf("tenant %d: window requests %d, trace has %d", tn, c.Requests, ref[tn].Requests)
				}
				for _, cap := range []int{20, 40, 80, 160, 320} {
					got := c.MissRatioAt(cap)
					want := float64(ref[tn].MissesAt(cap)) / float64(ref[tn].Requests)
					if diff := got - want; diff < -0.05 || diff > 0.05 {
						t.Errorf("tenant %d capacity %d: live miss ratio %.4f, offline %.4f (|diff| > 0.05)",
							tn, cap, got, want)
					}
				}
			}
		})
	}
}

// TestAdaptiveBeatsStaticPartition is the issue's acceptance experiment: on
// a phase-shifting workload, the adaptive controller (streaming MRC +
// marginal-cost capacity planning) must realize a strictly lower total
// convex cost sum_i f_i(misses_i) than a static even partition serving the
// identical request stream. Both services run deterministically from the
// same seed; the only difference is RebalanceOnce between batches.
func TestAdaptiveBeatsStaticPartition(t *testing.T) {
	const (
		k       = 64
		shards  = 2
		tenants = 2
		phase   = 16000
		batch   = 500
	)
	costs := []costfn.Func{costfn.Monomial{C: 1, Beta: 2}, costfn.Monomial{C: 1, Beta: 2}}
	mrc := &mrclive.Config{MaxSize: 128, Rate: 1, WindowEpochs: 4, EpochRequests: 1000}

	// Phase A: tenant 0 is hot over a large Zipf working set, tenant 1 only
	// touches a tiny set. Phase B swaps the roles onto fresh pages. A static
	// even split strands half the cache with the cold tenant in both phases.
	must := streamOrDie(t)
	hotA := must(workload.NewZipf(3, 400, 0.9))
	coldA := must(workload.NewZipf(4, 8, 0.5))
	hotB := must(workload.NewZipf(9, 400, 0.9))
	coldB := must(workload.NewZipf(10, 8, 0.5))
	var reqs []Request
	add := func(tn trace.Tenant, s workload.Stream, off int64) {
		reqs = append(reqs, Request{Op: OpGet, Tenant: tn,
			Key: fmt.Appendf(nil, "p%d", off+s.Next())})
	}
	for i := 0; i < phase; i++ {
		if i%5 == 4 {
			add(1, coldA, 0)
		} else {
			add(0, hotA, 0)
		}
	}
	for i := 0; i < phase; i++ {
		if i%5 == 4 {
			add(0, coldB, 1_000_000)
		} else {
			add(1, hotB, 1_000_000)
		}
	}

	run := func(adaptive bool) (Stats, int) {
		svc := newPartitionService(t, k, shards, tenants, mrc, costs, 4)
		rebalances := 0
		for lo := 0; lo < len(reqs); lo += batch {
			hi := lo + batch
			if hi > len(reqs) {
				hi = len(reqs)
			}
			if _, err := svc.Apply(reqs[lo:hi]); err != nil {
				t.Fatalf("apply [%d,%d): %v", lo, hi, err)
			}
			if adaptive && hi%2000 == 0 {
				if _, changed, err := svc.RebalanceOnce(); err != nil {
					t.Fatalf("rebalance at %d: %v", hi, err)
				} else if changed {
					rebalances++
				}
			}
		}
		rep, err := svc.Verify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean {
			t.Fatalf("adaptive=%v replay diverged: %v", adaptive, rep.Diffs)
		}
		return svc.Stats(), rebalances
	}

	realized := func(st Stats) float64 {
		total := 0.0
		for tn, ts := range st.PerTenant {
			total += costs[tn].Value(float64(ts.Misses))
		}
		return total
	}

	static, _ := run(false)
	adaptive, rebalances := run(true)
	costStatic, costAdaptive := realized(static), realized(adaptive)
	t.Logf("static cost %.0f (misses %d), adaptive cost %.0f (misses %d), rebalances %d",
		costStatic, static.Misses, costAdaptive, adaptive.Misses, rebalances)
	if rebalances == 0 {
		t.Fatal("controller never changed the split")
	}
	if costAdaptive >= costStatic {
		t.Fatalf("adaptive cost %.0f not below static %.0f", costAdaptive, costStatic)
	}
}
