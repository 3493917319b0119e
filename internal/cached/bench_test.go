package cached

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
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
// service whose log spans sealed WAL segments and the in-memory tail. The
// stream is applied once, outside the timer; one op is one Verify.
func BenchmarkVerify(b *testing.B) {
	reqs := benchRequests(b, 4, 4096, 200_000)
	svc, err := New(Config{
		K: 4096, Shards: 2, Tenants: 4,
		NewPolicy: benchPolicy,
		WAL:       &WALConfig{Dir: b.TempDir(), Fsync: FsyncOff, SegmentBytes: 256 << 10, CheckpointEvery: -1},
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
