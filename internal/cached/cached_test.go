package cached

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// testPolicy builds a fresh ALG-DISCRETE instance with mixed convex costs —
// the paper's algorithm, the policy cmd/cached serves by default.
func testPolicy() sim.Policy {
	f1, err := costfn.Parse("monomial:1,2")
	if err != nil {
		panic(err)
	}
	f2, err := costfn.Parse("linear:3")
	if err != nil {
		panic(err)
	}
	f3, err := costfn.Parse("monomial:0.5,1.5")
	if err != nil {
		panic(err)
	}
	return core.NewFast(core.Options{Costs: []costfn.Func{f1, f2, f3}})
}

// genRequests builds a seeded multi-tenant workload: each tenant draws keys
// from its own Zipf-ish popularity ranking, tenants are picked i.i.d. with
// skewed rates, ops alternate pseudo-randomly between GET and PUT.
func genRequests(seed int64, tenants, keysPerTenant, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	zipf := make([]*rand.Zipf, tenants)
	for t := range zipf {
		zipf[t] = rand.NewZipf(rand.New(rand.NewSource(seed+int64(t)*1001)), 1.2, 1, uint64(keysPerTenant-1))
	}
	reqs := make([]Request, n)
	for i := range reqs {
		t := rng.Intn(tenants)
		op := OpGet
		if rng.Intn(4) == 0 {
			op = OpPut
		}
		reqs[i] = Request{
			Op:     op,
			Tenant: trace.Tenant(t),
			Key:    []byte(fmt.Sprintf("t%d-key-%d", t, zipf[t].Uint64())),
		}
	}
	return reqs
}

func newTestService(t *testing.T, k, shards, tenants int) *Service {
	t.Helper()
	svc, err := New(Config{K: k, Shards: shards, Tenants: tenants, NewPolicy: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// applyAll drives reqs through the service in batches from a single
// goroutine, preserving order.
func applyAll(t *testing.T, svc *Service, reqs []Request, batch int) {
	t.Helper()
	for lo := 0; lo < len(reqs); lo += batch {
		hi := lo + batch
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if _, err := svc.Apply(reqs[lo:hi]); err != nil {
			t.Fatalf("apply [%d,%d): %v", lo, hi, err)
		}
	}
}

// TestNewValidation pins the constructor's rejection surface.
func TestNewValidation(t *testing.T) {
	base := Config{K: 8, Shards: 2, Tenants: 2, NewPolicy: testPolicy}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"k=0", func(c *Config) { c.K = 0 }},
		{"k<shards", func(c *Config) { c.K = 1; c.Shards = 4 }},
		{"tenants=0", func(c *Config) { c.Tenants = 0 }},
		{"nil factory", func(c *Config) { c.NewPolicy = nil }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// Shards <= 0 defaults to 1 rather than failing.
	svc, err := New(Config{K: 4, Tenants: 1, NewPolicy: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Shards() != 1 {
		t.Errorf("default shards = %d", svc.Shards())
	}
	svc.Close()
}

// TestApplyValidation pins the ingress rejection surface, on the one-shard
// path and the routed one. A key longer than MaxKeyLen is refused because
// the log could not replay it.
func TestApplyValidation(t *testing.T) {
	bad := []Request{
		{Op: 'X', Tenant: 0, Key: []byte("k")},
		{Op: OpGet, Tenant: 2, Key: []byte("k")},
		{Op: OpGet, Tenant: -1, Key: []byte("k")},
		{Op: OpGet, Tenant: 0, Key: nil},
		{Op: OpGet, Tenant: 0, Key: bytes.Repeat([]byte("k"), MaxKeyLen+1)},
	}
	for _, shards := range []int{1, 2} {
		svc := newTestService(t, 8, shards, 2)
		for i, r := range bad {
			if _, err := svc.Apply([]Request{r}); err == nil {
				t.Errorf("shards=%d: bad request %d accepted", shards, i)
			}
		}
		if res, err := svc.Apply(nil); err != nil || res != nil {
			t.Errorf("shards=%d: empty batch: %v %v", shards, res, err)
		}
		if st := svc.Stats(); st.Requests != 0 {
			t.Errorf("shards=%d: %d requests applied", shards, st.Requests)
		}
	}
}

// TestSingleShardMatchesSimRun is the n=1 anchor of the live-vs-replay
// family: a single-shard service fed sequentially must produce exactly the
// counters of sim.Run over the equivalent trace, with pages numbered in
// first-appearance order like the live shard assigns them.
func TestSingleShardMatchesSimRun(t *testing.T) {
	const k, tenants, n = 64, 3, 30_000
	reqs := genRequests(7, tenants, 400, n)

	svc := newTestService(t, k, 1, tenants)
	applyAll(t, svc, reqs, 1000)

	// Independent reconstruction: first-appearance page ids per (tenant,
	// key), exactly the live assignment order for one shard.
	pages := make(map[string]trace.PageID)
	b := trace.NewBuilder()
	for _, r := range reqs {
		key := fmt.Sprintf("%d/%s", r.Tenant, r.Key)
		p, ok := pages[key]
		if !ok {
			p = trace.PageID(len(pages))
			pages[key] = p
		}
		b.Add(r.Tenant, p)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(tr, testPolicy(), sim.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Hits != want.Hits {
		t.Errorf("hits: live %d, sim.Run %d", st.Hits, want.Hits)
	}
	for i := 0; i < tenants; i++ {
		if st.PerTenant[i].Misses != want.Misses[i] {
			t.Errorf("tenant %d misses: live %d, sim.Run %d", i, st.PerTenant[i].Misses, want.Misses[i])
		}
		if st.PerTenant[i].Evictions != want.Evictions[i] {
			t.Errorf("tenant %d evictions: live %d, sim.Run %d", i, st.PerTenant[i].Evictions, want.Evictions[i])
		}
	}

	// And the service's own verifier must agree.
	rep, err := svc.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("verify diffs: %v", rep.Diffs)
	}
}

// TestLiveVsReplayShardCounts drives the same seeded workload through shard
// counts 1, 2 and 4 and requires a zero live-vs-replay diff at every count,
// plus per-tenant request conservation across counts (partitioning changes
// hit rates, never who asked for what).
func TestLiveVsReplayShardCounts(t *testing.T) {
	const k, tenants, n = 96, 3, 60_000
	reqs := genRequests(11, tenants, 500, n)
	var perTenant [][]int64
	for _, shards := range []int{1, 2, 4} {
		svc := newTestService(t, k, shards, tenants)
		applyAll(t, svc, reqs, 777)
		rep, err := svc.Verify(context.Background())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !rep.Clean {
			t.Errorf("shards=%d: verify diffs: %v", shards, rep.Diffs)
		}
		if rep.Requests != n {
			t.Errorf("shards=%d: verified %d of %d requests", shards, rep.Requests, n)
		}
		for ti := 0; ti < tenants; ti++ {
			if got := rep.Live.Hits[ti] + rep.Live.Misses[ti]; got != rep.Live.Requests[ti] {
				t.Errorf("shards=%d tenant %d: hits+misses=%d requests=%d", shards, ti, got, rep.Live.Requests[ti])
			}
		}
		perTenant = append(perTenant, rep.Live.Requests)
		svc.Close()
	}
	for i := 1; i < len(perTenant); i++ {
		for ti := range perTenant[i] {
			if perTenant[i][ti] != perTenant[0][ti] {
				t.Errorf("tenant %d request count differs across shard counts: %v vs %v", ti, perTenant[i][ti], perTenant[0][ti])
			}
		}
	}
}

// TestLiveVsReplayMillionConcurrent is the acceptance differential: a seeded
// 1M-request multi-tenant workload driven by concurrent clients through
// shard counts 1, 2 and 4, with a zero per-tenant counter divergence
// required at every count. Concurrency makes the interleaving nondeterministic;
// the shard logs, not the submission order, are the ground truth the replay
// must match.
func TestLiveVsReplayMillionConcurrent(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	const k, tenants, clients = 512, 3, 8
	reqs := genRequests(42, tenants, 4000, total)

	for _, shards := range []int{1, 2, 4} {
		svc := newTestService(t, k, shards, tenants)
		var wg sync.WaitGroup
		per := total / clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(part []Request) {
				defer wg.Done()
				for lo := 0; lo < len(part); lo += 2048 {
					hi := lo + 2048
					if hi > len(part) {
						hi = len(part)
					}
					if _, err := svc.Apply(part[lo:hi]); err != nil {
						t.Errorf("apply: %v", err)
						return
					}
				}
			}(reqs[c*per : (c+1)*per])
		}
		wg.Wait()
		rep, err := svc.Verify(context.Background())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !rep.Clean {
			t.Errorf("shards=%d: live-vs-replay diverged: %v", shards, rep.Diffs)
		}
		if rep.Requests != clients*per {
			t.Errorf("shards=%d: verified %d of %d", shards, rep.Requests, clients*per)
		}
		svc.Close()
	}
}

// TestVerifyUnderLiveTraffic calls Verify while clients keep writing: the
// snapshot must land on a batch boundary and still diff clean against the
// replay of exactly the admitted prefix. With a WAL of 4 KiB segments the
// shards rotate while Verify reads the chunks its snapshot views, so a chunk
// written again after rotation is a data race.
func TestVerifyUnderLiveTraffic(t *testing.T) {
	const k, tenants = 64, 2
	for _, tc := range []struct {
		name string
		wal  func(dir string) *WALConfig
	}{
		{"no-wal", func(string) *WALConfig { return nil }},
		{"wal", testWAL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newWALService(t, Config{K: k, Shards: 2, Tenants: tenants, NewPolicy: testPolicy, WAL: tc.wal(t.TempDir())})
			reqs := genRequests(5, tenants, 300, 40_000)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(off int) {
					defer wg.Done()
					for i := off; ; i = (i + 512) % (len(reqs) - 512) {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := svc.Apply(reqs[i : i+512]); err != nil {
							t.Errorf("apply: %v", err)
							return
						}
					}
				}(c * 997)
			}
			seg := svc.Stats().Shards[0].Seg
			for round := 0; round < 3; round++ {
				rep, err := svc.Verify(context.Background())
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !rep.Clean {
					t.Errorf("round %d: diffs %v", round, rep.Diffs)
				}
			}
			close(stop)
			wg.Wait()
			if tc.name == "wal" && svc.Stats().Shards[0].Seg == seg {
				t.Error("no segment rotated while Verify ran")
			}
		})
	}
}

// TestLogBytesGauge pins the tail's memory. Without a WAL the tail is the
// whole session, and cached_log_bytes reports its length: at most 4 B per
// logged request, because a repeat is one varint slot.
func TestLogBytesGauge(t *testing.T) {
	const n = 100_000
	svc := newTestService(t, 64, 2, 3)
	applyAll(t, svc, genRequests(11, 3, 1000, n), 256)
	svc.Close()
	total := 0
	for _, sh := range svc.shards {
		held := 0
		for _, c := range sh.log.chunks {
			held += len(c)
		}
		gauge := svc.Registry().Gauge(fmt.Sprintf(`cached_log_bytes{shard="%d"}`, sh.id)).Value()
		if gauge != int64(held) || held != sh.log.bytes {
			t.Fatalf("shard %d: gauge %d, tail counts %d, chunks hold %d", sh.id, gauge, sh.log.bytes, held)
		}
		total += held
	}
	if per := float64(total) / n; per > 4 {
		t.Fatalf("tail holds %.2f B per request, want at most 4", per)
	}
}

// TestGracefulDrainMidLoad closes the service while concurrent clients are
// mid-flight: in-flight batches must complete (never panic, never lose a
// logged request), later ones must fail with ErrClosed, and the frozen state
// must still verify clean.
func TestGracefulDrainMidLoad(t *testing.T) {
	const tenants = 2
	svc, err := New(Config{K: 32, Shards: 4, Tenants: tenants, NewPolicy: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genRequests(13, tenants, 200, 20_000)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			<-start
			for i := off; i+256 <= len(reqs); i += 256 {
				if _, err := svc.Apply(reqs[i : i+256]); err != nil {
					if err == ErrClosed {
						return
					}
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(c * 11)
	}
	close(start)
	svc.Close()
	wg.Wait()

	// Every request a shard admitted is in its log; the frozen state must
	// replay clean.
	rep, err := svc.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("post-drain verify diffs: %v", rep.Diffs)
	}
	if _, err := svc.Apply(reqs[:1]); err != ErrClosed {
		t.Errorf("apply after close: %v", err)
	}
	svc.Close() // idempotent
}

// TestRoutingDeterminism pins that the (tenant, key) hash is stable and
// independent of request order: the same keys land on the same shards across
// two service instances fed in different orders.
func TestRoutingDeterminism(t *testing.T) {
	svc := newTestService(t, 8, 4, 2)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		a := svc.route(0, key)
		b := svc.route(0, key)
		if a != b {
			t.Fatalf("route unstable for %s: %d vs %d", key, a, b)
		}
		if x := svc.route(1, key); x < 0 || x >= 4 {
			t.Fatalf("route out of range: %d", x)
		}
	}
	// Tenant must be part of the hash: identical keys for different
	// tenants should not systematically collide onto one shard.
	diff := 0
	for i := 0; i < 256; i++ {
		key := []byte(fmt.Sprintf("shared-%d", i))
		if svc.route(0, key) != svc.route(1, key) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("tenant id does not influence routing")
	}
}

// TestShardFailureSurfaces injects a contract-violating policy and checks
// the shard fails closed: ResultError for its requests, an error from Err
// and Verify, healthy shards keep serving.
func TestShardFailureSurfaces(t *testing.T) {
	svc, err := New(Config{K: 2, Shards: 1, Tenants: 1, NewPolicy: func() sim.Policy {
		return badVictimPolicy{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reqs := []Request{
		{Op: OpGet, Tenant: 0, Key: []byte("a")},
		{Op: OpGet, Tenant: 0, Key: []byte("b")},
		{Op: OpGet, Tenant: 0, Key: []byte("c")}, // full cache -> bad victim
	}
	res, err := svc.Apply(reqs)
	if err == nil {
		t.Fatalf("want shard failure, got results %q", res)
	}
	if res[2] != ResultError {
		t.Errorf("results = %q", res)
	}
	if svc.Err() == nil {
		t.Error("Err() = nil after contract violation")
	}
	if _, err := svc.Verify(context.Background()); err == nil {
		t.Error("Verify must refuse a failed shard's log")
	}
}

// badVictimPolicy evicts a page that is never resident.
type badVictimPolicy struct{}

func (badVictimPolicy) Name() string                           { return "bad-victim" }
func (badVictimPolicy) OnHit(int, trace.Request)               {}
func (badVictimPolicy) OnInsert(int, trace.Request)            {}
func (badVictimPolicy) Victim(int, trace.Request) trace.PageID { return 1 << 40 }
func (badVictimPolicy) OnEvict(int, trace.PageID)              {}
func (badVictimPolicy) Reset()                                 {}

// TestStatsShape checks the aggregate accounting: totals equal the sum of
// shard counters and tenant counters, occupancy is bounded by each shard's
// share.
func TestStatsShape(t *testing.T) {
	const k, shards, tenants = 10, 4, 2
	svc := newTestService(t, k, shards, tenants)
	applyAll(t, svc, genRequests(3, tenants, 50, 5000), 500)
	st := svc.Stats()
	if st.Requests != 5000 {
		t.Errorf("requests = %d", st.Requests)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if len(st.Shards) != shards || len(st.PerTenant) != tenants {
		t.Fatalf("shape: %d shards, %d tenants", len(st.Shards), len(st.PerTenant))
	}
	sumK, sumReq := 0, int64(0)
	for _, sh := range st.Shards {
		if sh.Occupancy > sh.K {
			t.Errorf("shard %d occupancy %d > k %d", sh.Shard, sh.Occupancy, sh.K)
		}
		sumK += sh.K
		sumReq += sh.Requests
	}
	if sumK != k {
		t.Errorf("shard capacities sum to %d, want %d", sumK, k)
	}
	if sumReq != st.Requests {
		t.Errorf("shard requests sum to %d, want %d", sumReq, st.Requests)
	}
}
