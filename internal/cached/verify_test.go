package cached

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// TestVerifyTimeout pins that Verify honors an already-cancelled context
// with a recognizable error in both modes, at every shard count, and also
// when each shard's log is shorter than the replay engine's polling cadence.
func TestVerifyTimeout(t *testing.T) {
	for _, mode := range []string{"classic", "partition"} {
		for _, shards := range []int{1, 2, 4} {
			for _, n := range []int{2_000, 20_000} {
				t.Run(fmt.Sprintf("%s/shards=%d/requests=%d", mode, shards, n), func(t *testing.T) {
					var svc *Service
					if mode == "partition" {
						svc = newPartitionService(t, 64, shards, 2, nil, nil, 0)
					} else {
						svc = newTestService(t, 64, shards, 2)
					}
					applyAll(t, svc, genRequests(2, 2, 200, n), 1024)
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := svc.Verify(ctx); !errors.Is(err, context.Canceled) {
						t.Fatalf("verify with canceled context: %v", err)
					}
				})
			}
		}
	}
}

// closedWALService drives a 2-shard classic service with a WAL of 4 KiB
// segments, then closes it. Small batches keep segment rotation frequent,
// and extra batches run until every shard also holds at least two tail
// entries in memory, so Verify reads both of its sources on each shard.
func closedWALService(t *testing.T) *Service {
	t.Helper()
	svc := newWALService(t, Config{K: 64, Shards: 2, Tenants: 3, NewPolicy: testPolicy, WAL: testWAL(t.TempDir())})
	reqs := genRequests(5, 3, 300, 20_000)
	applyAll(t, svc, reqs[:6000], 32)
	for lo := 6000; ; lo += 8 {
		ok := true
		for _, sh := range svc.Stats().Shards {
			ok = ok && sh.LogStart > 0 && sh.LogLen >= 2
		}
		if ok {
			break
		}
		if lo+8 > len(reqs) {
			t.Fatal("no shard tail of two entries after the whole workload")
		}
		applyAll(t, svc, reqs[lo:lo+8], 8)
	}
	svc.Close()
	requireClean(t, svc)
	return svc
}

// TestVerifyReportsDivergence pins that Verify catches what it claims to: a
// live counter that disagrees with the log is a diff naming exactly that
// tenant's counters, and a log entry that breaks the shard's invariants is
// an error naming the shard — from the in-memory tail and from a sealed
// segment alike.
func TestVerifyReportsDivergence(t *testing.T) {
	svc := closedWALService(t)

	t.Run("counter", func(t *testing.T) {
		// One hit recorded as a miss: requests are conserved, so exactly the
		// tenant's hit and miss counters differ.
		sh := svc.shards[1]
		sh.hits[2]--
		sh.misses[2]++
		defer func() { sh.hits[2]++; sh.misses[2]-- }()
		rep, err := svc.Verify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean || len(rep.Diffs) != 2 ||
			!strings.HasPrefix(rep.Diffs[0], "tenant 2: hits ") || !strings.HasPrefix(rep.Diffs[1], "tenant 2: misses ") {
			t.Fatalf("clean=%v diffs=%q, want tenant 2's hit and miss diffs only", rep.Clean, rep.Diffs)
		}
	})

	tail := svc.shards[1].log.chunks[0]
	// repeat is the first tail entry whose page already appeared earlier in
	// the tail, so its page has a known owner.
	repeat := -1
	for j := 1; j < len(tail) && repeat < 0; j++ {
		for _, r := range tail[:j] {
			if r.page == tail[j].page {
				repeat = j
				break
			}
		}
	}
	if repeat < 0 {
		t.Fatal("no repeated page in shard 1's tail")
	}
	for _, tc := range []struct {
		name, want string
		j          int
		edit       func(r *logRec)
	}{
		{"residue", "outside residue class", 1, func(r *logRec) { r.page++ }},
		{"owner", "requested by tenant", repeat, func(r *logRec) { r.tenant = (r.tenant + 1) % 3 }},
		{"seq", "not increasing", 1, func(r *logRec) { r.seq = tail[0].seq }},
	} {
		t.Run("tail/"+tc.name, func(t *testing.T) {
			saved := tail[tc.j]
			tc.edit(&tail[tc.j])
			defer func() { tail[tc.j] = saved }()
			_, err := svc.Verify(context.Background())
			if err == nil || !strings.Contains(err.Error(), "shard 1 ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verify error = %v, want shard 1 and %q", err, tc.want)
			}
		})
	}

	t.Run("sealed/residue", func(t *testing.T) {
		// Re-encode shard 0's first segment with the WAL's own encoders,
		// moving the second request's page into shard 1's residue class, so
		// every frame stays CRC-valid.
		seg := filepath.Join(shardDirName(svc.walCfg.Dir, 0), segName(0))
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		reqNo := 0
		_, torn, err := scanSegment(bytes.NewReader(raw), func(rec walRecord) error {
			switch rec.kind {
			case recHeader:
				out = appendFrame(out, encodeHeader(rec.shard, rec.shards, rec.startEntry))
			case recRequest:
				e := rec.entry
				if reqNo == 1 {
					e.Page++
				}
				reqNo++
				out = appendFrame(out, encodeRequest(nil, e.Seq, e.Page, e.Tenant, rec.key))
			default:
				out = appendFrame(out, encodeQuotas(nil, rec.entry.Seq, rec.entry.Quotas))
			}
			return nil
		})
		if err != nil || torn || reqNo < 2 {
			t.Fatalf("scan sealed segment: err=%v torn=%v requests=%d", err, torn, reqNo)
		}
		if err := os.WriteFile(seg, out, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = svc.Verify(context.Background())
		if err == nil || !strings.Contains(err.Error(), "shard 0 ") || !strings.Contains(err.Error(), "outside residue class") {
			t.Fatalf("verify error = %v, want shard 0 and a residue-class violation", err)
		}
	})
}

// panicOnInsert is LRU whose OnInsert panics: a replay engine that breaks.
type panicOnInsert struct{ sim.Policy }

func (panicOnInsert) OnInsert(int, trace.Request) { panic("replay engine broke") }

// TestVerifyReplayPanicIsAnError pins that a panic inside a shard's replay,
// which runs on its own goroutine, comes back from Verify as an error
// naming the shard instead of crashing the process.
func TestVerifyReplayPanicIsAnError(t *testing.T) {
	var broken atomic.Bool
	svc, err := New(Config{K: 16, Tenants: 2, NewPolicy: func() sim.Policy {
		if broken.Load() {
			return panicOnInsert{policy.NewLRU()}
		}
		return policy.NewLRU()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	applyAll(t, svc, genRequests(3, 2, 50, 500), 64)
	requireClean(t, svc)
	broken.Store(true)
	if _, err := svc.Verify(context.Background()); err == nil || !strings.Contains(err.Error(), "shard 0: replay panicked") {
		t.Fatalf("verify with a panicking replay engine: %v", err)
	}
}
