package cached

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
	"unsafe"

	"convexcache/internal/httpapi"
	"convexcache/internal/resilience"
)

// HTTPConfig tunes the HTTP front of the service; the zero value is usable.
type HTTPConfig = httpapi.Config

// handlerState is one Handler instance: the shared admission stack and
// response writers, in front of the service.
type handlerState struct {
	*httpapi.API
	svc *Service
	// scratch holds *wireScratch values for POST /v1/cache.
	scratch sync.Pool
}

// Handler mounts the service behind the repo's standard HTTP surface:
//
//	POST /v1/cache        — newline-separated wire requests, returns hit/miss accounting
//	GET  /v1/cache/stats  — live per-tenant and per-shard counters
//	POST /v1/cache/verify — live-vs-replay differential; 200 clean, 500 on divergence
//	GET  /healthz, GET /metrics
//
// The cache endpoints sit behind the same internal/httpapi admission stack
// as the simulation server (per-client rate limit → per-endpoint breaker →
// concurrency limiter), and all HTTP metrics land in the service's registry
// next to the per-shard counters.
func (s *Service) Handler(cfg HTTPConfig) http.Handler {
	st := &handlerState{API: httpapi.New(cfg, s.reg), svc: s}
	st.scratch.New = func() any { return new(wireScratch) }
	mux := st.Mux()
	mux.HandleFunc("POST /v1/cache", st.Protect("/v1/cache", st.handleCache))
	mux.HandleFunc("GET /v1/cache/stats", st.handleStats)
	mux.HandleFunc("POST /v1/cache/verify", st.Protect("/v1/cache/verify", st.handleVerify))
	mux.HandleFunc("GET /v1/mrc/live", st.handleMRCLive)
	mux.HandleFunc("POST /v1/cache/rebalance", st.handleRebalance)
	return st.Wrap(mux, cacheRouteLabel)
}

func cacheRouteLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/healthz", "/metrics", "/v1/cache", "/v1/cache/stats", "/v1/cache/verify",
		"/v1/mrc/live", "/v1/cache/rebalance":
		return r.URL.Path
	}
	return "other"
}

// CacheResponse is the reply of POST /v1/cache.
type CacheResponse struct {
	Requests int `json:"requests"`
	Hits     int `json:"hits"`
	Misses   int `json:"misses"`
	// Shed counts requests dropped because their shard was down; they are
	// marked 'S' in Results and safe to retry.
	Shed int `json:"shed,omitempty"`
	// Results is one byte per request ('H' hit, 'M' miss, 'S' shed), in
	// request order.
	Results string `json:"results"`
}

func (st *handlerState) handleCache(w http.ResponseWriter, r *http.Request) {
	sc := st.scratch.Get().(*wireScratch)
	st.serveCache(w, r, sc)
	// Not deferred: Apply copies every key byte it keeps before it returns,
	// so the scratch is free once the reply is written, but a panic out of
	// serveCache may leave a shard still reading its requests.
	sc.release(&st.scratch)
}

func (st *handlerState) serveCache(w http.ResponseWriter, r *http.Request, sc *wireScratch) {
	body, err := st.Body(w, r)
	if err == nil {
		err = sc.read(body, r.ContentLength)
	}
	if err != nil {
		st.WriteError(w, r, http.StatusBadRequest, "bad_request", 0, fmt.Errorf("read request: %w", err))
		return
	}
	if err := sc.parse(st.svc.cfg.Tenants); err != nil {
		st.WriteError(w, r, http.StatusBadRequest, "bad_request", 0, err)
		return
	}
	reqs := sc.reqs
	if len(reqs) == 0 {
		st.WriteError(w, r, http.StatusBadRequest, "bad_request", 0, errors.New("empty batch"))
		return
	}
	results, err := st.svc.Apply(reqs)
	switch {
	case errors.Is(err, ErrShardDown):
		// Degraded mode: only the down shard's keys were shed (those
		// requests carry 'S' in Results); the batch is safe to retry after
		// the shard finishes rebuilding. As a shed it leaves the breaker
		// alone, so one rebuilding shard cannot open the circuit for
		// batches on healthy ones.
		st.ShedError(w, r, &resilience.Shed{
			Reason: resilience.ReasonShardDown, RetryAfter: time.Second, Detail: err.Error(),
		})
		return
	case errors.Is(err, ErrClosed):
		st.WriteError(w, r, http.StatusServiceUnavailable, "draining", 0, err)
		return
	case err != nil:
		st.WriteError(w, r, http.StatusInternalServerError, "internal", 0, err)
		return
	}
	resp := CacheResponse{Requests: len(reqs), Results: string(results)}
	for _, c := range results {
		switch c {
		case ResultHit:
			resp.Hits++
		case ResultShed:
			resp.Shed++
		default:
			resp.Misses++
		}
	}
	st.WriteJSON(w, r, http.StatusOK, resp)
}

// Bounds on the memory a POST /v1/cache scratch holds: maxPooledBody bytes
// of body and as many bytes of requests.
const (
	// maxPooledBody caps the body buffer a Content-Length announces before
	// the bytes arrive, and the body buffers kept for reuse.
	maxPooledBody = 1 << 20
	// maxPooledReqs caps the requests parse allocates before it reads the
	// body, and the request slices kept for reuse.
	maxPooledReqs = maxPooledBody / int(unsafe.Sizeof(Request{}))
)

// wireScratch is one POST /v1/cache's body buffer and the requests parsed
// from it, which alias the buffer. Handlers reuse scratches through a
// sync.Pool, so a batch allocates nothing that grows with its key count.
type wireScratch struct {
	body bytes.Buffer
	reqs []Request
}

// read reads r to EOF into the body buffer, grown first to hold size bytes,
// the request's Content-Length, up to maxPooledBody. ReadFrom grows a
// buffer with fewer than bytes.MinRead bytes free, so that much is added.
func (sc *wireScratch) read(r io.Reader, size int64) error {
	sc.body.Reset()
	sc.body.Grow(int(min(max(size, 0), maxPooledBody)) + bytes.MinRead)
	_, err := sc.body.ReadFrom(r)
	return err
}

// parse parses the body into reqs, grown first to batchCap, up to
// maxPooledReqs, so that parsing a body of no more requests never
// reallocates it. A body of blank lines, or one whose first line is bad,
// thus costs at most maxPooledReqs requests.
func (sc *wireScratch) parse(tenants int) error {
	body := sc.body.Bytes()
	if n := min(batchCap(body), maxPooledReqs); cap(sc.reqs) < n {
		sc.reqs = make([]Request, 0, n)
	}
	var err error
	sc.reqs, err = appendBatch(sc.reqs[:0], body, tenants)
	return err
}

// release returns sc to pool unless a buffer outgrew its cap, in which case
// the collector takes it. The requests are zeroed first, so that a pooled
// scratch points at no buffer but its own.
func (sc *wireScratch) release(pool *sync.Pool) {
	if sc.body.Cap() > maxPooledBody || cap(sc.reqs) > maxPooledReqs {
		return
	}
	clear(sc.reqs)
	sc.reqs = sc.reqs[:0]
	pool.Put(sc)
}

func (st *handlerState) handleStats(w http.ResponseWriter, r *http.Request) {
	st.WriteJSON(w, r, http.StatusOK, st.svc.Stats())
}

func (st *handlerState) handleMRCLive(w http.ResponseWriter, r *http.Request) {
	live, err := st.svc.MRCLive()
	if err != nil {
		st.WriteError(w, r, http.StatusNotFound, "mrc_disabled", 0, err)
		return
	}
	st.WriteJSON(w, r, http.StatusOK, live)
}

func (st *handlerState) handleRebalance(w http.ResponseWriter, r *http.Request) {
	quotas, changed, err := st.svc.RebalanceOnce()
	if err != nil {
		st.WriteError(w, r, http.StatusConflict, "rebalance_unavailable", 0, err)
		return
	}
	st.WriteJSON(w, r, http.StatusOK, map[string]any{"quotas": quotas, "changed": changed})
}

func (st *handlerState) handleVerify(w http.ResponseWriter, r *http.Request) {
	rep, err := st.svc.Verify(r.Context())
	if err != nil {
		st.WriteError(w, r, http.StatusInternalServerError, "internal", 0, err)
		return
	}
	status := http.StatusOK
	if !rep.Clean {
		// A divergence is a server-side correctness failure; 500 makes
		// `curl -fsS` (and the breaker) treat it as one.
		status = http.StatusInternalServerError
	}
	st.WriteJSON(w, r, status, rep)
}
