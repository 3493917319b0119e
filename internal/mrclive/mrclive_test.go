package mrclive

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"convexcache/internal/analysis"
	"convexcache/internal/costfn"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// randomTrace builds a seeded multi-tenant trace with tenant-disjoint pages.
// Its workload.PageOf ids are sparse; renamed makes them dense for a
// sampler.
func randomTrace(t *testing.T, seed int64, tenants, pagesPer, length int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	for i := 0; i < length; i++ {
		tn := trace.Tenant(rng.Intn(tenants))
		b.Add(tn, workload.PageOf(tn, int64(rng.Intn(pagesPer))))
	}
	return b.MustBuild()
}

// feed drives a request stream through one sampler.
func feed(s *Sampler, reqs []trace.Request) {
	for _, r := range reqs {
		s.Observe(r.Tenant, r.Page)
	}
}

// TestSamplerExactAtFullRate pins the degenerate case the whole design
// hinges on: one sampler, rate 1, scale 1, window wider than the trace —
// the streaming estimator IS incremental Mattson and must match the offline
// per-tenant analysis bit for bit. The sampler sees the trace under dense
// ids; the offline analysis sees the original ids, which have the same
// stack distances.
func TestSamplerExactAtFullRate(t *testing.T) {
	tr := randomTrace(t, 42, 3, 60, 30000)
	maxSize := 96
	s, err := NewSampler(Config{
		Tenants: 3, MaxSize: maxSize, Rate: 1, WindowEpochs: 2,
		EpochRequests: tr.Len() + 1, Scale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(s, renamed(tr, 1))
	curves := Merge([][]TenantWindow{s.Snapshot()}, 3, maxSize, 1, 1)
	offline, err := analysis.PerTenant(tr, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	for tn := 0; tn < 3; tn++ {
		if curves[tn].Requests != offline[tn].Requests {
			t.Fatalf("tenant %d: live requests %d != offline %d",
				tn, curves[tn].Requests, offline[tn].Requests)
		}
		for c := 0; c < maxSize; c++ {
			if curves[tn].HitsAt[c] != float64(offline[tn].HitsAt[c]) {
				t.Fatalf("tenant %d c=%d: live HitsAt %v not bit-identical to offline %d",
					tn, c+1, curves[tn].HitsAt[c], offline[tn].HitsAt[c])
			}
		}
	}
}

// TestSamplerShardPartitionTolerance checks the second sampling layer: when
// the request stream is partitioned page-mod-n across n samplers (exactly
// how internal/cached shards own pages) with Scale=n, the merged curve must
// track the offline exact curve within 5% miss ratio at every sampled
// capacity — the acceptance tolerance from the issue.
func TestSamplerShardPartitionTolerance(t *testing.T) {
	m, err := workload.NewMarkov(5, 3000, 0.55, 60)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Mix(6, []workload.TenantStream{{Tenant: 0, Stream: m, Rate: 1}}, 80000)
	if err != nil {
		t.Fatal(err)
	}
	maxSize := 400
	offline, err := analysis.Mattson(tr, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		samplers := make([]*Sampler, n)
		for i := range samplers {
			samplers[i], err = NewSampler(Config{
				Tenants: 1, MaxSize: maxSize, Rate: 1, WindowEpochs: 2,
				EpochRequests: tr.Len() + 1, Scale: n,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range tr.Requests() {
			samplers[int(uint64(r.Page)%uint64(n))].Observe(r.Tenant, r.Page)
		}
		snaps := make([][]TenantWindow, n)
		for i, s := range samplers {
			snaps[i] = s.Snapshot()
		}
		curves := Merge(snaps, 1, maxSize, 1, n)
		if curves[0].Requests != int64(tr.Len()) {
			t.Fatalf("n=%d: merged requests %d != trace length %d", n, curves[0].Requests, tr.Len())
		}
		for _, c := range []int{25, 50, 100, 200, 400} {
			want := float64(offline.MissesAt(c)) / float64(offline.Requests)
			got := curves[0].MissRatioAt(c)
			if math.Abs(got-want) > 0.05 {
				t.Errorf("n=%d c=%d: live miss ratio %.4f vs offline %.4f (err > 5%%)", n, c, got, want)
			}
		}
	}
}

// TestSamplerWindowExpiry pins the decay semantics: after the working set
// shifts and the old phase rotates fully out of the W-epoch ring, the
// window counters and curve reflect only the new phase.
func TestSamplerWindowExpiry(t *testing.T) {
	const epoch = 1000
	s, err := NewSampler(Config{
		Tenants: 1, MaxSize: 64, Rate: 1, WindowEpochs: 2, EpochRequests: epoch, Scale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase A: tight loop over 8 pages — almost all window hits.
	for i := 0; i < 2*epoch; i++ {
		s.Observe(0, trace.PageID(i%8))
	}
	hot := Merge([][]TenantWindow{s.Snapshot()}, 1, 64, 1, 1)[0]
	if hot.MissRatioAt(16) > 0.05 {
		t.Fatalf("hot-loop window miss ratio %.3f, want near 0", hot.MissRatioAt(16))
	}
	// Phase B: cold scan of fresh pages, long enough to rotate phase A out
	// of the 2-epoch ring entirely.
	for i := 0; i < 3*epoch; i++ {
		s.Observe(0, trace.PageID(1000+i))
	}
	cold := Merge([][]TenantWindow{s.Snapshot()}, 1, 64, 1, 1)[0]
	if cold.Requests > 2*epoch {
		t.Fatalf("window requests %d exceed the %d-request window", cold.Requests, 2*epoch)
	}
	if ratio := cold.MissRatioAt(64); ratio < 0.999 {
		t.Fatalf("cold-scan window miss ratio %.4f, want 1 (phase A mass must have expired)", ratio)
	}
	// Expired pages must be gone from the stack: re-touching a phase-A page
	// now is a cold reference, not a huge-distance reuse.
	before := s.Snapshot()[0]
	s.Observe(0, trace.PageID(3))
	after := s.Snapshot()[0]
	for d := range after.Hist {
		if after.Hist[d] != before.Hist[d] {
			t.Fatalf("re-touch of expired page recorded a reuse at distance %d", d)
		}
	}
}

// TestSamplerDeterministic pins reproducibility: the same request sequence
// through fresh samplers yields identical snapshots, for each shard count.
func TestSamplerDeterministic(t *testing.T) {
	tr := randomTrace(t, 7, 2, 80, 20000)
	for _, n := range []int{1, 2, 4} {
		run := func() []TenantCurve {
			samplers := make([]*Sampler, n)
			for i := range samplers {
				s, err := NewSampler(Config{
					Tenants: 2, MaxSize: 128, Rate: 0.5, Seed: 9,
					WindowEpochs: 4, EpochRequests: 512, Scale: n,
				})
				if err != nil {
					t.Fatal(err)
				}
				samplers[i] = s
			}
			for _, r := range renamed(tr, n) {
				samplers[int(r.Page)%n].Observe(r.Tenant, r.Page)
			}
			snaps := make([][]TenantWindow, n)
			for i, s := range samplers {
				snaps[i] = s.Snapshot()
			}
			return Merge(snaps, 2, 128, 0.5, n)
		}
		a, b := run(), run()
		for tn := range a {
			if a[tn].Requests != b[tn].Requests || a[tn].Sampled != b[tn].Sampled {
				t.Fatalf("n=%d tenant %d: counts differ across runs", n, tn)
			}
			for c := range a[tn].HitsAt {
				if a[tn].HitsAt[c] != b[tn].HitsAt[c] {
					t.Fatalf("n=%d tenant %d c=%d: %v != %v", n, tn, c+1, a[tn].HitsAt[c], b[tn].HitsAt[c])
				}
			}
		}
	}
}

// TestSamplerCompaction forces many slot-array compactions (tiny reuse set,
// long stream) and checks distances survive them.
func TestSamplerCompaction(t *testing.T) {
	s, err := NewSampler(Config{
		Tenants: 1, MaxSize: 16, Rate: 1, WindowEpochs: 2, EpochRequests: 1 << 30, Scale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate two pages 10k times: after the first pair every access is a
	// reuse at distance 1, across ~40 compactions of the 256-slot array.
	for i := 0; i < 20000; i++ {
		s.Observe(0, trace.PageID(i%2))
	}
	w := s.Snapshot()[0]
	if w.Hist[1] != 20000-2 {
		t.Fatalf("distance-1 reuses = %d, want %d", w.Hist[1], 20000-2)
	}
}

func TestSamplerConfigValidation(t *testing.T) {
	if _, err := NewSampler(Config{Tenants: 0}); err == nil {
		t.Error("tenants=0 accepted")
	}
	if _, err := NewSampler(Config{Tenants: 1, Rate: 1.5}); err == nil {
		t.Error("rate>1 accepted")
	}
	s, err := NewSampler(Config{Tenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.MaxSize != 256 || cfg.Rate != 1 || cfg.WindowEpochs != 8 || cfg.EpochRequests != 4096 || cfg.Scale != 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// TestControllerShiftsCapacityToActiveTenant drives the Plan path: tenant 0
// busy with a steep curve, tenant 1 idle — capacity flows to tenant 0 down
// to tenant 1's floor, and the split always sums to K.
func TestControllerShiftsCapacityToActiveTenant(t *testing.T) {
	maxSize := 64
	busy := TenantCurve{Tenant: 0, Requests: 10000, Rate: 1, HitsAt: make([]float64, maxSize)}
	for c := 0; c < maxSize; c++ {
		// Hits grow linearly with capacity: every page helps.
		busy.HitsAt[c] = float64(c+1) * 150
	}
	idle := TenantCurve{Tenant: 1, Requests: 0, Rate: 1, HitsAt: make([]float64, maxSize)}
	ctl := Controller{K: 48, Costs: []costfn.Func{costfn.Monomial{C: 1, Beta: 2}, costfn.Monomial{C: 1, Beta: 2}}, Floor: 4}
	q, err := ctl.Plan([]int{24, 24}, []TenantCurve{busy, idle}, []int64{5000, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if q[0]+q[1] != 48 {
		t.Fatalf("split %v does not sum to 48", q)
	}
	if q[1] != 4 {
		t.Fatalf("idle tenant kept %d pages, want floor 4", q[1])
	}
	if q[0] != 44 {
		t.Fatalf("active tenant got %d pages, want 44", q[0])
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := (Controller{K: 0}).Plan(nil, []TenantCurve{{}}, nil); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := (Controller{K: 4}).Plan(nil, nil, nil); err == nil {
		t.Error("no curves accepted")
	}
}

// BenchmarkObserve times Observe per key on shard 0 of a 2-shard service
// (Scale 2) fed cmd/cachebench's adaptive mix: four tenants, two on
// 4000-page Zipf sets and two on 64-page ones, swapping roles halfway, under
// the adaptive workload's estimator config. Pages reach the shard by hash,
// under the dense ids the shard interner assigns. One warm-up pass over the
// stream runs before the timer, so allocs/key counts steady-state
// allocations.
func BenchmarkObserve(b *testing.B) {
	phases := [][]string{
		{"zipf:4000,0.9", "zipf:4000,0.9", "zipf:64,0.5", "zipf:64,0.5"},
		{"zipf:64,0.5", "zipf:64,0.5", "zipf:4000,0.9", "zipf:4000,0.9"},
	}
	const keysPerPhase = 1 << 19
	rng := rand.New(rand.NewSource(1))
	ids := newDenseIDs(2)
	var reqs []trace.Request
	for ph, specs := range phases {
		ss := make([]workload.Stream, len(specs))
		for t, spec := range specs {
			st, _, err := workload.ParseStream(spec, int64(t*1001+ph*7919))
			if err != nil {
				b.Fatal(err)
			}
			ss[t] = st
		}
		for i := 0; i < keysPerPhase; i++ {
			t := trace.Tenant(rng.Intn(len(ss)))
			h := uint64(workload.PageOf(t, ss[t].Next())) * 0x9e3779b97f4a7c15
			if id := ids.id(trace.PageID((h ^ h>>29) >> 2)); id%2 == 0 {
				reqs = append(reqs, trace.Request{Tenant: t, Page: id})
			}
		}
	}
	s, err := NewSampler(Config{Tenants: 4, MaxSize: 4096, Rate: 1, Seed: 1, WindowEpochs: 8, EpochRequests: 4096, Scale: 2})
	if err != nil {
		b.Fatal(err)
	}
	feed(s, reqs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		s.Observe(r.Tenant, r.Page)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/key")
}
