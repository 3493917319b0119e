package cached

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// benchRequests builds a zipf-ish multi-tenant request stream in wire shape.
func benchRequests(b *testing.B, tenants, pages, length int) []Request {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	reqs := make([]Request, length)
	// One arena backs every key so the request set is a handful of heap
	// objects, not `length` of them — the benchmark should weigh the
	// service, not the collector marking its input.
	arena := make([]byte, 0, 8*length)
	for i := range reqs {
		t := trace.Tenant(rng.Intn(tenants))
		// Squared draw concentrates mass on low pages, cheap zipf stand-in.
		p := rng.Intn(pages)
		p = (p * p) / pages
		base := len(arena)
		arena = fmt.Appendf(arena, "p%d", p)
		reqs[i] = Request{Op: OpGet, Tenant: t, Key: arena[base:len(arena):len(arena)]}
	}
	return reqs
}

// benchPolicy is ALG with the four benchmark tenants' convex costs.
func benchPolicy() sim.Policy {
	return core.NewFast(core.Options{Costs: []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 2},
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 4},
	}})
}

func benchService(b *testing.B) func() *Service {
	b.Helper()
	return func() *Service {
		svc, err := New(Config{K: 4096, Shards: 1, Tenants: 4, NewPolicy: benchPolicy})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
}

// BenchmarkApplyDense is the live fast path: single shard on the dense core.
func BenchmarkApplyDense(b *testing.B) {
	reqs := benchRequests(b, 4, 4096, 200_000)
	mk := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := mk()
		for lo := 0; lo < len(reqs); lo += 512 {
			hi := min(lo+512, len(reqs))
			if _, err := svc.Apply(reqs[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		svc.Close()
	}
	b.SetBytes(int64(len(reqs)))
}

// BenchmarkVerify is one live-vs-replay differential over a closed 2-shard
// service whose log spans sealed WAL segments (64 KiB, a few per shard) and
// the in-memory tail. The stream is applied once, outside the timer; one op
// is one Verify.
func BenchmarkVerify(b *testing.B) {
	reqs := benchRequests(b, 4, 4096, 200_000)
	svc, err := New(Config{
		K: 4096, Shards: 2, Tenants: 4,
		NewPolicy: benchPolicy,
		WAL:       &WALConfig{Dir: b.TempDir(), Fsync: FsyncOff, SegmentBytes: 64 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(reqs); lo += 512 {
		if _, err := svc.Apply(reqs[lo:min(lo+512, len(reqs))]); err != nil {
			b.Fatal(err)
		}
	}
	svc.Close()
	for _, sh := range svc.Stats().Shards {
		if sh.Seg == 0 {
			b.Fatalf("shard %d sealed no segment", sh.Shard)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := svc.Verify(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean {
			b.Fatalf("verify diverged: %v", rep.Diffs)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// bulkSource draws requests shaped like cmd/cachebench's bulk workload: its
// four tenant streams, a tenant picked uniformly per key, keys "p<n>".
type bulkSource struct {
	streams []workload.Stream
	rng     *rand.Rand
}

func newBulkSource(b *testing.B) *bulkSource {
	b.Helper()
	specs := []string{"zipf:8192,0.9", "zipf:8192,1.1", "uniform:4096", "hotset:4096,64,0.9,5000"}
	src := &bulkSource{streams: make([]workload.Stream, len(specs)), rng: rand.New(rand.NewSource(1))}
	for t, spec := range specs {
		var err error
		if src.streams[t], _, err = workload.ParseStream(spec, int64(1+t*1001)); err != nil {
			b.Fatal(err)
		}
	}
	return src
}

// fill overwrites reqs with the next len(reqs) GETs, their keys written to
// arena from its start, and returns the arena.
func (src *bulkSource) fill(reqs []Request, arena []byte) []byte {
	arena = arena[:0]
	for i := range reqs {
		t := src.rng.Intn(len(src.streams))
		start := len(arena)
		arena = strconv.AppendInt(append(arena, 'p'), src.streams[t].Next(), 10)
		reqs[i] = Request{Op: OpGet, Tenant: trace.Tenant(t), Key: arena[start:len(arena):len(arena)]}
	}
	return arena
}

// BenchmarkRecover times startup recovery of a 2-shard, K=4096 ALG service
// from a WAL of 2^22 requests on the real filesystem, written in 1024-key
// bulkSource batches under the default interval fsync. The WAL is built once
// per sub-benchmark: crashed ends the writing service with Crash, closed
// with a clean Close. One op is one New with Recover; it is followed,
// untimed, by Crash, so nothing is written between ops and every op
// recovers the same directory.
func BenchmarkRecover(b *testing.B) {
	const n, batch = 1 << 22, 1024
	for _, name := range []string{"crashed", "closed"} {
		src := newBulkSource(b)
		cfg := Config{K: 4096, Shards: 2, Tenants: len(src.streams), NewPolicy: benchPolicy,
			WAL: &WALConfig{Dir: b.TempDir()}}
		svc, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]Request, batch)
		arena := make([]byte, 0, 16*batch)
		for sent := 0; sent < n; sent += batch {
			arena = src.fill(reqs, arena)
			if _, err := svc.Apply(reqs); err != nil {
				b.Fatal(err)
			}
		}
		if name == "crashed" {
			svc.Crash()
		} else {
			svc.Close()
		}
		b.Run(name, func(b *testing.B) {
			rcfg := cfg
			w := *cfg.WAL
			w.Recover = true
			rcfg.WAL = &w
			for i := 0; i < b.N; i++ {
				r, err := New(rcfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := r.Recovery().Entries; got != n {
					b.Fatalf("recovered %d entries, want %d", got, n)
				}
				r.Crash()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
		})
	}
}

// BenchmarkHandleCache is POST /v1/cache through Service.Handler — body
// read, parse, Apply and the JSON reply — with 1024-key bulkSource bodies
// against a 2-shard, K=4096, 4-tenant ALG service without a WAL. One op is
// one POST; 256 distinct bodies are sent in turn.
func BenchmarkHandleCache(b *testing.B) {
	const batch, nbodies = 1024, 256
	src := newBulkSource(b)
	reqs := make([]Request, batch)
	var arena []byte
	bodies := make([][]byte, nbodies)
	for i := range bodies {
		arena = src.fill(reqs, arena)
		for _, r := range reqs {
			bodies[i] = FormatRequest(bodies[i], r)
		}
	}
	svc, err := New(Config{K: 4096, Shards: 2, Tenants: len(src.streams), NewPolicy: benchPolicy})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler(quietHTTP())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/cache", bytes.NewReader(bodies[i%nbodies]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
}
