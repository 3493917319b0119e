package cached

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// TestNewRejectsKBelowShards pins the k >= shards constructor contract:
// every shard must get a nonzero capacity share, or partition-mode quota
// math and the dense core's capacity both degenerate.
func TestNewRejectsKBelowShards(t *testing.T) {
	if _, err := New(Config{K: 3, Shards: 4, Tenants: 2, NewPolicy: testPolicy}); err == nil {
		t.Fatal("k < shards accepted")
	}
	// At the boundary k == shards each share is exactly one page.
	svc, err := New(Config{K: 4, Shards: 4, Tenants: 2, NewPolicy: testPolicy})
	if err != nil {
		t.Fatalf("k == shards rejected: %v", err)
	}
	for s := 0; s < 4; s++ {
		if got := sim.ShardShare(4, 4, s); got != 1 {
			t.Fatalf("shard %d share = %d, want 1", s, got)
		}
	}
	svc.Close()
}

// TestMaxKeyLenBoundary drives keys at the 256-byte wire limit through the
// live dense path, the WAL and recovery: the limit is a wire constraint,
// not an engine one, so a MaxKeyLen key must intern, hit, persist and
// recover exactly like a short one.
func TestMaxKeyLenBoundary(t *testing.T) {
	dir := t.TempDir()
	long := bytes.Repeat([]byte("x"), MaxKeyLen)
	long2 := append(bytes.Repeat([]byte("y"), MaxKeyLen-1), 'z')
	reqs := []Request{
		{Op: OpGet, Tenant: 0, Key: long},
		{Op: OpGet, Tenant: 1, Key: long}, // same bytes, distinct tenant-scoped page
		{Op: OpGet, Tenant: 0, Key: long2},
		{Op: OpGet, Tenant: 0, Key: long}, // must hit
	}
	svc := newWALService(t, Config{K: 8, Shards: 2, Tenants: 3, NewPolicy: testPolicy, WAL: testWAL(dir)})
	res, err := svc.Apply(reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{ResultMiss, ResultMiss, ResultMiss, ResultHit}
	if !bytes.Equal(res, want) {
		t.Fatalf("results = %v, want %v", res, want)
	}
	requireClean(t, svc)
	svc.Close()

	// Recovery re-interns the long keys from WAL records; the reopened
	// service must hit on them immediately.
	svc2 := newWALService(t, Config{K: 8, Shards: 2, Tenants: 3, NewPolicy: testPolicy,
		WAL: &WALConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 4096, Recover: true}})
	res2, err := svc2.Apply([]Request{
		{Op: OpGet, Tenant: 0, Key: long},
		{Op: OpGet, Tenant: 1, Key: long},
		{Op: OpGet, Tenant: 0, Key: long2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res2 {
		if r != ResultHit {
			t.Fatalf("post-recovery request %d = %d, want hit", i, r)
		}
	}
	requireClean(t, svc2)
}

// TestInterningStableAcrossRecover pins the identity layer's recovery
// contract: the key -> residue-class page-id mapping a recovered service
// rebuilds from its WAL is the one the original assigned, so a stream that
// continues across the restart behaves bit-identically to one that never
// stopped.
func TestInterningStableAcrossRecover(t *testing.T) {
	const shards, tenants, k = 2, 3, 24
	dir := t.TempDir()
	s1 := genRequests(11, tenants, 40, 600)
	// s2 replays exactly s1's keys in a new deterministic order, so a
	// stable interner must not allocate a single new page id for it.
	s2 := append([]Request(nil), s1...)
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(s2), func(i, j int) { s2[i], s2[j] = s2[j], s2[i] })

	svc, err := New(Config{K: k, Shards: shards, Tenants: tenants, NewPolicy: testPolicy, WAL: testWAL(dir)})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, svc, s1, 128)
	pagesBefore := countPages(t, svc)
	svc.Close()

	svc2 := newWALService(t, Config{K: k, Shards: shards, Tenants: tenants, NewPolicy: testPolicy,
		WAL: &WALConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 4096, Recover: true}})
	if got := countPages(t, svc2); got != pagesBefore {
		t.Fatalf("recovered service interned %d pages, original had %d", got, pagesBefore)
	}
	applyAll(t, svc2, s2, 128)
	// s2 reuses s1's key universe: a stable interner allocates no new ids.
	if got := countPages(t, svc2); got != pagesBefore {
		t.Fatalf("replaying known keys grew the page table %d -> %d: ids were re-assigned", pagesBefore, got)
	}
	requireClean(t, svc2)

	// The continued run must be bit-identical to one that never restarted:
	// stable interning means the recovered service resolves s2's keys to the
	// same residue-class page ids, so hits/misses/evictions all line up.
	ref := newTestService(t, k, shards, tenants)
	applyAll(t, ref, s1, 128)
	applyAll(t, ref, s2, 128)
	st, stRef := normalizeStats(svc2.Stats()), normalizeStats(ref.Stats())
	if st.Hits != stRef.Hits || st.Misses != stRef.Misses || st.Evictions != stRef.Evictions {
		t.Fatalf("recovered run hits/misses/evictions %d/%d/%d, uninterrupted %d/%d/%d",
			st.Hits, st.Misses, st.Evictions, stRef.Hits, stRef.Misses, stRef.Evictions)
	}
	for i := range st.Shards {
		a, b := st.Shards[i], stRef.Shards[i]
		if a.Pages != b.Pages || a.Requests != b.Requests || a.Occupancy != b.Occupancy {
			t.Fatalf("shard %d: recovered run pages/requests/occupancy %d/%d/%d, uninterrupted %d/%d/%d",
				i, a.Pages, a.Requests, a.Occupancy, b.Pages, b.Requests, b.Occupancy)
		}
	}
	if fmt.Sprint(st.PerTenant) != fmt.Sprint(stRef.PerTenant) {
		t.Fatalf("per-tenant stats diverged:\nrecovered:     %v\nuninterrupted: %v", st.PerTenant, stRef.PerTenant)
	}
}

// countPages sums the interned page count over all shards.
func countPages(t *testing.T, svc *Service) int {
	t.Helper()
	total := 0
	for _, sh := range svc.Stats().Shards {
		total += sh.Pages
	}
	return total
}

// TestKeyTableMatchesMap drives the arena-backed interner against a plain
// map with colliding-prefix and boundary-length keys.
func TestKeyTableMatchesMap(t *testing.T) {
	var kt keyTable
	ref := map[string]trace.PageID{}
	keys := [][]byte{}
	// Short keys (inline-prefix fast path), 8-byte boundary, long keys
	// sharing an 8-byte prefix (arena comparison path).
	for i := 0; i < 600; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
		keys = append(keys, []byte(fmt.Sprintf("exactly8-%d", i))[:8+len(fmt.Sprint(i))])
		keys = append(keys, append(bytes.Repeat([]byte("p"), 12), []byte(fmt.Sprint(i))...))
	}
	for i, k := range keys {
		h, pre := hashKey(k)
		if _, ok := kt.lookup(h, pre, k); ok != (func() bool { _, seen := ref[string(k)]; return seen })() {
			t.Fatalf("lookup(%q) presence diverged from map", k)
		}
		if _, seen := ref[string(k)]; !seen {
			kt.insert(h, pre, k, trace.PageID(i))
			ref[string(k)] = trace.PageID(i)
		}
	}
	if kt.n != len(ref) {
		t.Fatalf("table has %d entries, map has %d", kt.n, len(ref))
	}
	for k, p := range ref {
		h, pre := hashKey([]byte(k))
		got, ok := kt.lookup(h, pre, []byte(k))
		if !ok || got != p {
			t.Fatalf("lookup(%q) = %d,%v want %d", k, got, ok, p)
		}
	}
}
