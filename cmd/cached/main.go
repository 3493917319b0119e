// Command cached runs the live sharded cache service (internal/cached): the
// paper's online algorithm applied to live GET/PUT traffic instead of a
// recorded trace, with every shard keeping a deterministic request log so
// the whole run is differentially checkable against the offline simulator.
//
// Two modes:
//
//	cached [serve] -addr :8090 -k 4096 -shards 4 -tenants 8 \
//	       -policy alg -costs monomial:1,2 -costs linear:1
//
// serves the HTTP API (POST /v1/cache wire batches, GET /v1/cache/stats,
// POST /v1/cache/verify, /healthz, /metrics). With -adaptive the policy is
// replaced by the quota-partition engine: per-tenant quotas seeded by an
// even split, a streaming MRC estimator on every shard (GET /v1/mrc/live),
// and a capacity controller that re-splits k across tenants by marginal
// convex cost — every -rebalance-every period and on demand via
// POST /v1/cache/rebalance; -reserve pages per tenant are never reclaimed.
// -mrc enables the estimator alone under a classic policy. On SIGINT/SIGTERM
// the server drains
// in-flight requests, freezes the shards, and — with -verify-on-shutdown
// (default true) — replays every shard's request log through the simulator
// and exits nonzero on any per-tenant counter divergence: a crash-free exit is a
// correctness certificate for the whole serving session.
//
//	cached drive -target http://127.0.0.1:8090 -requests 500000 \
//	       -clients 8 -stream zipf:4000,1.2 -stream uniform:2000
//
// is the load generator: it reuses the runspec/tracegen stream-spec syntax
// (one -stream per tenant, KIND:PARAMS[:RATE]) to synthesize a seeded
// multi-tenant workload, drives it in concurrent batches against a running
// server, then hits /v1/cache/verify and exits nonzero unless the
// live-vs-replay diff is clean. The CI cached-smoke job is exactly this
// pair.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"convexcache/internal/cached"
	"convexcache/internal/fault"
	"convexcache/internal/mrclive"
	"convexcache/internal/obs"
	"convexcache/internal/resilience"
	"convexcache/internal/runspec"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "drive" {
		return runDrive(args[1:])
	}
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
	}
	return runServe(args)
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func runServe(args []string) int {
	fs := flag.NewFlagSet("cached serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8090", "listen address")
		k             = fs.Int("k", 4096, "total cache capacity in pages (split across shards)")
		shards        = fs.Int("shards", 4, "shard count")
		tenants       = fs.Int("tenants", 8, "tenant universe size")
		policyName    = fs.String("policy", "alg", "eviction policy (runspec registry name)")
		seed          = fs.Int64("seed", 1, "seed for randomized policies")
		logFormat     = fs.String("log-format", "text", "log format: text or json")
		shutdownGrace = fs.Duration("shutdown-grace", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		verifyOnExit  = fs.Bool("verify-on-shutdown", true, "replay the request log on shutdown and fail on divergence")
		maxBody       = fs.Int64("max-body", cached.MaxBodyBytes, "request body cap in bytes")
		maxConcurrent = fs.Int("max-concurrent", 0, "concurrent cache requests (0 = GOMAXPROCS)")
		rateRPS       = fs.Float64("rate-rps", 0, "per-client sustained requests/second (0 disables)")
		rateBurst     = fs.Float64("rate-burst", 0, "per-client burst allowance (0 = 2x rate-rps)")
		breakFails    = fs.Int("breaker-failures", 0, "consecutive failures that open a circuit (0 = default)")
		breakOpenFor  = fs.Duration("breaker-open-for", 0, "cooldown before an open circuit half-opens (0 = default)")
		adaptive      = fs.Bool("adaptive", false, "partition mode: per-tenant quotas steered by the live MRC controller (replaces -policy)")
		mrcOn         = fs.Bool("mrc", false, "enable the streaming MRC estimator (implied by -adaptive)")
		mrcWindow     = fs.Int("mrc-window", 8, "estimator sliding window length in epochs")
		mrcEpoch      = fs.Int("mrc-epoch", 4096, "requests per estimator epoch (per shard)")
		mrcRate       = fs.Float64("mrc-rate", 1.0, "SHARDS sampling rate in (0,1]")
		mrcMaxSize    = fs.Int("mrc-max-size", 0, "largest estimated capacity in pages (0 = k)")
		rebalanceTick = fs.Duration("rebalance-every", 0, "capacity controller period (0 = only on POST /v1/cache/rebalance)")
		reserve       = fs.Int("reserve", 1, "per-tenant reserve floor in pages the controller never reclaims")
		walDir        = fs.String("wal", "", "write-ahead-log directory; enables crash-fault tolerance (empty = in-memory only)")
		walRecover    = fs.Bool("recover", false, "recover existing state from the -wal directory instead of refusing it")
		fsyncMode     = fs.String("fsync", "interval", "WAL fsync policy: always, interval or off")
		fsyncEvery    = fs.Duration("fsync-interval", 0, "max unsynced window under -fsync interval (0 = 50ms)")
		segBytes      = fs.Int64("segment-bytes", 0, "WAL segment rotation size in bytes (0 = 8MiB)")
		ckptEvery     = fs.Int("checkpoint-every", 0, "checkpoint every N log entries per shard (0 = default, negative disables)")
		walFault      = fs.String("wal-fault", "", "deterministic WAL fault spec, e.g. seed=1,write_err_p=0.01,crash_at=5000 (chaos testing)")
		crashAfter    = fs.Duration("crash-after", 0, "chaos: SIGKILL this process after the given duration (simulated kill -9)")
		verifyTimeout = fs.Duration("verify-timeout", 0, "shutdown-verify deadline; exceeding it exits with code 3 (0 = no deadline)")
		costSpecs     stringList
	)
	fs.Var(&costSpecs, "costs", "per-tenant convex cost spec (repeatable; default linear:1 per tenant)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "unknown -log-format %q (want text or json)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	// Resolve the policy through the run-spec registry so serve and
	// simulate agree on names, options and cost parsing.
	costs, err := runspec.Costs(costSpecs, *tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg := cached.Config{
		K:        *k,
		Shards:   *shards,
		Tenants:  *tenants,
		Registry: obs.NewRegistry(),
	}
	if *adaptive {
		// Partition mode: an even static split seeds the quota vector; the
		// controller (ticker below and POST /v1/cache/rebalance) re-splits
		// it from the live curves and the per-tenant marginal costs.
		quotas := make([]int, *tenants)
		for t := range quotas {
			quotas[t] = *k / *tenants
			if t < *k%*tenants {
				quotas[t]++
			}
		}
		cfg.Quotas = quotas
		cfg.Costs = costs
		cfg.ReserveFloor = *reserve
	} else {
		sc := runspec.Scenario{Policies: []runspec.PolicySpec{{Name: *policyName}}, Seed: *seed}
		compiled, err := sc.CompilePolicies(*k, *tenants, costs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		cfg.NewPolicy = compiled[0].New
	}
	if *adaptive || *mrcOn {
		maxSize := *mrcMaxSize
		if maxSize <= 0 {
			maxSize = *k
		}
		cfg.MRC = &mrclive.Config{
			MaxSize:       maxSize,
			Rate:          *mrcRate,
			Seed:          uint64(*seed),
			WindowEpochs:  *mrcWindow,
			EpochRequests: *mrcEpoch,
		}
	}
	if *walDir != "" {
		w := &cached.WALConfig{
			Dir:             *walDir,
			Fsync:           cached.FsyncPolicy(*fsyncMode),
			FsyncInterval:   *fsyncEvery,
			SegmentBytes:    *segBytes,
			CheckpointEvery: *ckptEvery,
			Recover:         *walRecover,
		}
		if *walFault != "" {
			fcfg, err := fault.ParseFSSpec(*walFault)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			w.FS = fault.NewFS(fault.OSFS, fcfg, cfg.Registry)
			logger.Warn("WAL fault injection armed", "spec", *walFault)
		}
		cfg.WAL = w
	} else if *walRecover {
		fmt.Fprintln(os.Stderr, "-recover requires -wal")
		return 2
	}
	svc, err := cached.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if rep := svc.Recovery(); rep != nil {
		logger.Info("recovered from WAL", "wal", *walDir,
			"shards", rep.Shards, "entries", rep.Entries, "requests", rep.Requests,
			"replayed", rep.Replayed, "checkpoints", rep.Checkpoints,
			"truncations", rep.Truncations, "last_seq", rep.LastSeq)
	}

	// Chaos mode for the crash-smoke CI job: after the fuse burns down, die
	// the hard way — SIGKILL skips every deferred cleanup, exactly like a
	// machine losing power mid-load. Recovery must still be bit-exact.
	if *crashAfter > 0 {
		time.AfterFunc(*crashAfter, func() {
			logger.Error("chaos fuse expired, sending SIGKILL to self", "after", crashAfter.String())
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		})
	}

	h := svc.Handler(cached.HTTPConfig{
		Logger:       logger,
		MaxBodyBytes: *maxBody,
		Limiter:      resilience.LimiterConfig{MaxConcurrent: *maxConcurrent},
		RateLimit:    resilience.RateLimiterConfig{RPS: *rateRPS, Burst: *rateBurst},
		Breaker:      resilience.BreakerConfig{FailureThreshold: *breakFails, OpenFor: *breakOpenFor},
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(handler, slog.LevelWarn),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The capacity controller ticker: every period, merge the live curves
	// and re-split k across tenants by marginal cost, installing the new
	// quota vector only when it differs.
	var rebWG sync.WaitGroup
	if *adaptive && *rebalanceTick > 0 {
		rebWG.Add(1)
		go func() {
			defer rebWG.Done()
			tick := time.NewTicker(*rebalanceTick)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					quotas, changed, err := svc.RebalanceOnce()
					if err != nil {
						logger.Warn("rebalance failed", "err", err)
					} else if changed {
						logger.Info("rebalanced", "quotas", fmt.Sprint(quotas))
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		engine := *policyName
		if *adaptive {
			engine = "adaptive-partition"
		}
		logger.Info("cached listening", "addr", *addr, "k", *k, "shards", *shards,
			"tenants", *tenants, "policy", engine)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	rebWG.Wait()

	logger.Info("shutting down, draining in-flight requests", "grace", shutdownGrace.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Error("drain incomplete, forcing close", "err", err)
		_ = srv.Close()
		code = 1
	}
	svc.Close()

	if *verifyOnExit {
		vctx := context.Background()
		if *verifyTimeout > 0 {
			var vcancel context.CancelFunc
			vctx, vcancel = context.WithTimeout(vctx, *verifyTimeout)
			defer vcancel()
		}
		rep, err := svc.Verify(vctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				logger.Error("shutdown verify timed out", "timeout", verifyTimeout.String(), "err", err)
				return 3
			}
			logger.Error("shutdown verify failed", "err", err)
			return 1
		}
		logger.Info("shutdown verify", "requests", rep.Requests, "clean", rep.Clean,
			"hits", rep.Live.TotalHits, "misses", rep.Live.TotalMisses,
			"replay", rep.ReplayDur.String())
		if !rep.Clean {
			for _, d := range rep.Diffs {
				logger.Error("live-vs-replay divergence", "diff", d)
			}
			return 1
		}
	}
	logger.Info("shutdown complete")
	return code
}

func runDrive(args []string) int {
	fs := flag.NewFlagSet("cached drive", flag.ContinueOnError)
	var (
		target   = fs.String("target", "http://127.0.0.1:8090", "base URL of the cached server")
		requests = fs.Int("requests", 100_000, "total requests to drive")
		clients  = fs.Int("clients", 8, "concurrent client connections")
		batch    = fs.Int("batch", 1024, "requests per POST /v1/cache batch")
		seed     = fs.Int64("seed", 1, "workload seed")
		putFrac  = fs.Float64("put-frac", 0.25, "fraction of PUT requests")
		verify   = fs.Bool("verify", true, "hit /v1/cache/verify after the run and require a clean diff")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
		retries  = fs.Int("max-retries", 8, "retry budget per batch on 503/429 (0 disables retry)")
		backoff  = fs.Duration("retry-base", 50*time.Millisecond, "base delay for capped exponential backoff between retries")
		streams  stringList
	)
	fs.Var(&streams, "stream", "tenant stream spec KIND:PARAMS[:RATE] (repeatable, one per tenant)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(streams) == 0 {
		streams = stringList{"zipf:4000,1.2", "uniform:2000", "hotset:3000,64,0.9,5000"}
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Synthesize the workload up front with the tracegen/runspec stream
	// syntax: tenant t's pages come from its own stream, the next tenant is
	// picked i.i.d. by rate, keys are the tenant-local page numbers.
	type tstream struct {
		s    workload.Stream
		rate float64
	}
	ts := make([]tstream, len(streams))
	total := 0.0
	for t, spec := range streams {
		s, rate, err := workload.ParseStream(spec, *seed+int64(t)*1001)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ts[t] = tstream{s: s, rate: rate}
		total += rate
	}
	rng := rand.New(rand.NewSource(*seed))
	batches := make([][]byte, 0, (*requests+*batch-1) / *batch)
	var buf []byte
	for i := 0; i < *requests; i++ {
		u := rng.Float64() * total
		t := 0
		for u > ts[t].rate && t < len(ts)-1 {
			u -= ts[t].rate
			t++
		}
		op := cached.OpGet
		if rng.Float64() < *putFrac {
			op = cached.OpPut
		}
		buf = cached.FormatRequest(buf, cached.Request{
			Op:     op,
			Tenant: trace.Tenant(t),
			Key:    fmt.Appendf(nil, "p%d", ts[t].s.Next()),
		})
		if (i+1)%*batch == 0 || i == *requests-1 {
			batches = append(batches, buf)
			buf = nil
		}
	}

	client := &http.Client{Timeout: *timeout}
	var hits, misses, failed, retried atomic.Int64
	next := make(chan []byte, len(batches))
	for _, b := range batches {
		next <- b
	}
	close(next)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				var cr cached.CacheResponse
				ok := false
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(*target+"/v1/cache", "text/plain", bytes.NewReader(b))
					if err != nil {
						logger.Error("post batch", "err", err)
						break
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if retryable(resp.StatusCode) {
						if attempt >= *retries {
							logger.Error("batch shed, retries exhausted",
								"status", resp.StatusCode, "attempts", attempt+1, "body", clip(body))
							break
						}
						d := retryDelay(attempt, *backoff, resp.Header.Get("Retry-After"))
						logger.Warn("batch shed, backing off",
							"status", resp.StatusCode, "attempt", attempt+1, "delay", d.String())
						retried.Add(1)
						time.Sleep(d)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						logger.Error("batch rejected", "status", resp.StatusCode, "body", clip(body))
						break
					}
					if err := json.Unmarshal(body, &cr); err != nil {
						logger.Error("decode batch response", "err", err)
						break
					}
					ok = true
					break
				}
				if !ok {
					failed.Add(1)
					continue
				}
				hits.Add(int64(cr.Hits))
				misses.Add(int64(cr.Misses))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	served := hits.Load() + misses.Load()
	logger.Info("drive complete",
		"requests", served, "hits", hits.Load(), "misses", misses.Load(),
		"failed_batches", failed.Load(), "retries", retried.Load(),
		"elapsed", elapsed.String(),
		"rps", fmt.Sprintf("%.0f", float64(served)/elapsed.Seconds()))
	if failed.Load() > 0 {
		return 1
	}

	if *verify {
		resp, err := client.Post(*target+"/v1/cache/verify", "text/plain", nil)
		if err != nil {
			logger.Error("verify request", "err", err)
			return 1
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rep cached.VerifyReport
		if err := json.Unmarshal(body, &rep); err != nil {
			logger.Error("decode verify report", "status", resp.StatusCode, "err", err, "body", clip(body))
			return 1
		}
		logger.Info("verify", "requests", rep.Requests, "shards", rep.Shards,
			"clean", rep.Clean, "replay", rep.ReplayDur.String())
		if resp.StatusCode != http.StatusOK || !rep.Clean {
			for _, d := range rep.Diffs {
				logger.Error("live-vs-replay divergence", "diff", d)
			}
			return 1
		}
	}
	return 0
}

// retryable reports whether a status is transient load-shedding — a down
// shard rebuilding from its WAL (503) or admission control (429) — rather
// than a real rejection.
func retryable(status int) bool {
	return status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests
}

// retryDelay picks the wait before re-posting a shed batch: the server's
// Retry-After hint when present, else capped exponential backoff from base,
// with ±25% jitter either way so clients don't re-converge in lockstep.
func retryDelay(attempt int, base time.Duration, retryAfter string) time.Duration {
	d := time.Duration(0)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d == 0 {
		d = base << uint(min(attempt, 6))
	}
	if max := 5 * time.Second; d > max {
		d = max
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}

func clip(b []byte) string {
	if len(b) > 256 {
		return string(b[:256]) + "…"
	}
	return string(bytes.TrimSpace(b))
}
