package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"convexcache/internal/cached"
	"convexcache/internal/core"
	"convexcache/internal/fault"
	"convexcache/internal/mrclive"
	"convexcache/internal/obs"
	"convexcache/internal/resilience"
	"convexcache/internal/runspec"
)

// The layer pass feeds at most this much of a round's stream through the
// layers in process, which bounds its time and the spans it keeps.
const (
	layerMaxKeys  = 2 << 20
	layerMaxPosts = 30_000
	// microIters is the iteration count of the per-POST micro loops
	// (middleware, admission), whose cost does not depend on the stream.
	microIters = 20_000
)

// layerPass is one in-process pass over a round's stream.
type layerPass struct {
	spans []span
	self  []int64
	keys  int
	// accounting splits cached.http.handler_ns_per_key into the self times
	// of the layers below it.
	parse, handlerSelf, applySelf, engine, wal, handler float64
	metrics                                             map[string]float64
}

// handlerRun is one pass of the HTTP handler alone over the stream.
type handlerRun struct {
	dur                          time.Duration
	mallocs, allocBytes, gcCycle uint64
}

// runLayers feeds the round's batches through the public entry point of each
// layer, recording a span around every call, and derives the per-layer
// metrics; r supplies the server-side figures of the same round.
//
// Per batch: ParseBatch, Apply on a service configured like the workload's
// server (its WAL behind a timing filesystem), Apply on an auxiliary
// partition-mode service with a WAL (so the WAL and rebalance layers have a
// number on every workload), the HTTP handler of a third such service,
// core.Open's Access on the pre-interned keys at capacity k, and the MRC
// sampler's Observe. Allocation counts and the tracing overhead come from
// separate single-layer passes without spans.
func runLayers(e *env, w workload, st *stream, r *roundResult) (*layerPass, error) {
	posts := append(append([]post(nil), st.warm...), st.meas...)
	n, nk := 0, 0
	for n < len(posts) && n < layerMaxPosts && nk+posts[n].keys <= layerMaxKeys {
		nk += posts[n].keys
		n++
	}
	posts = posts[:n]
	tenant, page := st.tenant[:nk], st.page[:nk]

	dir, err := e.scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logf, err := os.Create(filepath.Join(dir, "access.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	logger := slog.New(slog.NewJSONHandler(logf, nil))

	tr := newTracer()
	svcFS := &timedFS{FS: fault.OSFS, tr: tr}
	svcCfg, err := w.serviceConfig(filepath.Join(dir, "svc"), svcFS)
	if err != nil {
		return nil, err
	}
	svc, err := cached.New(svcCfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	auxFS := &timedFS{FS: fault.OSFS, tr: tr}
	auxCfg, err := workload{shards: w.shards, adaptive: true, fsync: "interval"}.serviceConfig(filepath.Join(dir, "aux"), auxFS)
	if err != nil {
		return nil, err
	}
	aux, err := cached.New(auxCfg)
	if err != nil {
		return nil, err
	}
	defer aux.Close()
	h, hsvc, err := handler(w, filepath.Join(dir, "handler"), logger)
	if err != nil {
		return nil, err
	}
	defer hsvc.Close()
	costs, err := runspec.Costs(costSpecs, tenants)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewOpen(core.Options{Costs: costs}, tenants, capacity, 1, 0)
	if err != nil {
		return nil, err
	}
	smp, err := mrclive.NewSampler(mrclive.Config{Tenants: tenants, MaxSize: capacity, Rate: 1, Seed: 1, WindowEpochs: 8, EpochRequests: 4096})
	if err != nil {
		return nil, err
	}
	rebalancer := aux
	if w.adaptive {
		rebalancer = svc
	}

	off, sinceRebalance := 0, 0
	for i, p := range posts {
		b := int32(i)
		root := tr.begin("batch", b, -1)
		s := tr.begin("wire.parse", b, root)
		reqs, err := cached.ParseBatch(p.body, tenants)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("service.apply", b, root)
		_, err = svc.Apply(reqs)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("aux.apply", b, root)
		_, err = aux.Apply(reqs)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/cache", bytes.NewReader(p.body))
		rec := httptest.NewRecorder()
		s = tr.begin("http.handler", b, root)
		h.ServeHTTP(rec, req)
		tr.end(s)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler answered %d: %s", rec.Code, clip(rec.Body.Bytes()))
		}
		ts, ps := tenant[off:off+p.keys], page[off:off+p.keys]
		s = tr.begin("engine.access", b, root)
		for j := range ps {
			if _, _, err = eng.Access(ps[j], ts[j]); err != nil {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("mrc.observe", b, root)
		for j := range ps {
			smp.Observe(ts[j], ps[j])
		}
		tr.end(s)
		off += p.keys
		sinceRebalance += p.keys
		if sinceRebalance >= st.rebalanceEvery || i == len(posts)-1 {
			s = tr.begin("mrc.rebalance", b, root)
			_, _, err = rebalancer.RebalanceOnce()
			tr.end(s)
			if err != nil {
				return nil, err
			}
			sinceRebalance = 0
		}
		tr.end(root)
	}

	evictions := svc.Stats().Evictions
	s := tr.begin("verify", -1, -1)
	rep, err := svc.Verify(context.Background())
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if !rep.Clean {
		return nil, fmt.Errorf("in-process verify not clean: %v", rep.Diffs)
	}
	verifyNS := tr.dur(s)

	// Recovery reads back the WAL of the service whose log is on the
	// workload's path, or the auxiliary one's when the workload has none.
	walSvc, walCfg, walFS := aux, auxCfg, auxFS
	if w.fsync != "" {
		walSvc, walCfg, walFS = svc, svcCfg, svcFS
	}
	sig := signature(walSvc.Stats())
	svc.Close()
	aux.Close()
	rc := *walCfg.WAL
	rc.Recover, rc.FS = true, nil
	walCfg.WAL = &rc
	s = tr.begin("recover", -1, -1)
	rsvc, err := cached.New(walCfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	rsig := signature(rsvc.Stats())
	rsvc.Close()
	if rsig != sig {
		return nil, fmt.Errorf("in-process recovery differs:\n  before %s\n  after  %s", sig, rsig)
	}
	recoverNS := tr.dur(s)

	parseMallocs, applyMallocs, err := allocPasses(w, filepath.Join(dir, "apply"), posts)
	if err != nil {
		return nil, err
	}
	plain, err := handlerPass(w, filepath.Join(dir, "plain"), posts, logger, nil)
	if err != nil {
		return nil, err
	}
	traced, err := handlerPass(w, filepath.Join(dir, "traced"), posts, logger, newTracer())
	if err != nil {
		return nil, err
	}
	middleware, admit, err := microLoops(logger)
	if err != nil {
		return nil, err
	}

	spans := tr.finish()
	lp := &layerPass{spans: spans, self: selfTimes(spans), keys: nk}
	type agg struct {
		n         int
		dur, self int64
	}
	by := make(map[string]*agg)
	for i, sp := range lp.spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
		}
		a.n++
		a.dur += sp.End - sp.Start
		a.self += lp.self[i]
	}
	// Every pass serves at least one POST, so every span name is present.
	total := func(name string) int64 { return by[name].dur }
	perKey := func(v int64) float64 { return float64(v) / float64(nk) }
	perPost := func(v int64) float64 { return float64(v) / float64(n) }

	lp.parse = perKey(total("wire.parse"))
	lp.handler = perKey(total("http.handler"))
	apply := perKey(total("service.apply"))
	applyNoWAL := perKey(by["service.apply"].self)
	lp.wal = apply - applyNoWAL
	// The engine on the server's path is core.Open except in partition
	// mode, whose quota LRU stays inside apply's self time.
	if !w.adaptive {
		lp.engine = perKey(total("engine.access"))
	}
	lp.applySelf = applyNoWAL - lp.engine
	lp.handlerSelf = lp.handler - lp.parse - apply
	serverNSPerKey := float64(r.serverCPU.Nanoseconds()) / float64(r.measKeys)

	lp.metrics = map[string]float64{
		"cached.wire.parse_ns_per_key":         lp.parse,
		"cached.wire.parse_allocs_per_key":     float64(parseMallocs) / float64(nk),
		"core.open.access_ns_per_key":          perKey(total("engine.access")),
		"cached.service.apply_ns_per_key":      apply,
		"cached.service.apply_self_ns_per_key": lp.applySelf,
		"cached.service.apply_allocs_per_key":  float64(applyMallocs) / float64(nk),
		"cached.engine.evictions_per_key":      perKey(evictions),
		"cached.wal.write_ns_per_key":          perKey(walFS.writeNS),
		"cached.wal.sync_ns_per_key":           perKey(walFS.syncNS),
		"cached.wal.writes_per_post":           perPost(walFS.writes),
		"cached.wal.syncs_per_post":            perPost(walFS.syncs),
		"cached.wal.bytes_per_key":             perKey(walFS.bytes),
		"cached.recover_ns_per_key":            perKey(recoverNS),
		"cached.verify.replay_ns_per_key":      perKey(verifyNS),
		"cached.http.handler_ns_per_key":       lp.handler,
		"cached.http.handler_self_ns_per_key":  lp.handlerSelf,
		"cached.http.handler_allocs_per_post":  float64(plain.mallocs) / float64(n),
		"obs.middleware_ns_per_post":           middleware,
		"resilience.admit_ns_per_post":         admit,
		"net.overhead_us_per_post":             r.netOverheadUS(),
		"mrclive.observe_ns_per_key":           perKey(total("mrc.observe")),
		"mrclive.rebalance_ms":                 float64(total("mrc.rebalance")) / float64(by["mrc.rebalance"].n) / 1e6,
		"go.alloc_bytes_per_key":               float64(plain.allocBytes) / float64(nk),
		"go.gc_cycles_per_mkey":                float64(plain.gcCycle) / float64(nk) * 1e6,
		"loadgen.client_cpu_us_per_key":        float64(r.clientCPU.Nanoseconds()) / 1e3 / float64(r.measKeys),
		"layer.remainder_share":                1 - lp.handler/serverNSPerKey,
		"trace.overhead_share":                 float64(traced.dur) / float64(plain.dur),
	}
	return lp, nil
}

// handler builds a service configured like the workload's server and its
// HTTP handler, logging to logger. The WAL, if any, writes under dir.
func handler(w workload, dir string, logger *slog.Logger) (http.Handler, *cached.Service, error) {
	cfg, err := w.serviceConfig(dir, nil)
	if err != nil {
		return nil, nil, err
	}
	svc, err := cached.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return svc.Handler(cached.HTTPConfig{Logger: logger}), svc, nil
}

// handlerPass serves posts through the handler of a fresh service, with a
// span per POST when tr is non-nil, and measures the pass's time and the Go
// runtime's allocation and GC counters over it.
func handlerPass(w workload, dir string, posts []post, logger *slog.Logger, tr *tracer) (handlerRun, error) {
	h, svc, err := handler(w, dir, logger)
	if err != nil {
		return handlerRun{}, err
	}
	defer svc.Close()
	// Start from a collected heap, so the pass pays for its own garbage
	// only and the traced and untraced passes start alike.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i, p := range posts {
		req := httptest.NewRequest(http.MethodPost, "/v1/cache", bytes.NewReader(p.body))
		rec := httptest.NewRecorder()
		root := tr.begin("batch", int32(i), -1)
		s := tr.begin("http.handler", int32(i), root)
		h.ServeHTTP(rec, req)
		tr.end(s)
		tr.end(root)
		if rec.Code != http.StatusOK {
			return handlerRun{}, fmt.Errorf("handler answered %d: %s", rec.Code, clip(rec.Body.Bytes()))
		}
	}
	run := handlerRun{dur: time.Since(t0)}
	runtime.ReadMemStats(&m1)
	run.mallocs = m1.Mallocs - m0.Mallocs
	run.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	run.gcCycle = uint64(m1.NumGC - m0.NumGC)
	return run, nil
}

// allocPasses counts the heap allocations of ParseBatch over posts, then of
// Apply on a fresh service (parse and apply together, less the parse count).
func allocPasses(w workload, dir string, posts []post) (parse, apply uint64, err error) {
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	m0 := mallocs()
	for _, p := range posts {
		if _, err := cached.ParseBatch(p.body, tenants); err != nil {
			return 0, 0, err
		}
	}
	parse = mallocs() - m0

	cfg, err := w.serviceConfig(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	svc, err := cached.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer svc.Close()
	m0 = mallocs()
	for _, p := range posts {
		reqs, err := cached.ParseBatch(p.body, tenants)
		if err != nil {
			return 0, 0, err
		}
		if _, err := svc.Apply(reqs); err != nil {
			return 0, 0, err
		}
	}
	both := mallocs() - m0
	return parse, both - min(both, parse), nil
}

// microLoops times the per-POST layers that do not depend on the stream: the
// obs middleware around a no-op handler, logging to logger, and the
// resilience admission stack (breaker plus concurrency limiter) as the cache
// route applies it. Both return ns per POST.
func microLoops(logger *slog.Logger) (middleware, admit float64, err error) {
	mw := obs.Middleware{Reg: obs.NewRegistry(), Log: logger, Route: func(*http.Request) string { return "/v1/cache" }}.
		Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest(http.MethodPost, "/v1/cache", nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	for i := 0; i < microIters; i++ {
		mw.ServeHTTP(rec, req)
	}
	middleware = float64(time.Since(t0).Nanoseconds()) / microIters

	reg := obs.NewRegistry()
	br := resilience.NewBreaker("/v1/cache", resilience.BreakerConfig{}, reg)
	lim := resilience.NewLimiter(resilience.LimiterConfig{}, reg)
	ctx := context.Background()
	t0 = time.Now()
	for i := 0; i < microIters; i++ {
		call, err := br.Allow()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		release, err := lim.Acquire(ctx)
		if err != nil {
			return 0, 0, err
		}
		release()
		call.Record(resilience.Success, time.Since(start))
	}
	admit = float64(time.Since(t0).Nanoseconds()) / microIters
	return middleware, admit, nil
}
