// Package httpapi is the HTTP front door of the simulation server
// (internal/server) and the live cache service (internal/cached): the
// admission stack, the JSON error envelope, the base mux with /healthz and
// /metrics, and the serve-until-signal lifecycle their commands share. The
// services keep only their routes and handlers.
package httpapi

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"convexcache/internal/obs"
	"convexcache/internal/resilience"
)

// MaxBodyBytes is the default request-body cap: ~16 MiB holds millions of
// JSON trace rows or ~100k-line cache batches while bounding per-request
// memory.
const MaxBodyBytes = 16 << 20

// Config tunes an API; the zero value is production-usable.
type Config struct {
	// Logger receives the structured request logs; nil selects
	// slog.Default().
	Logger *slog.Logger
	// MaxBodyBytes caps request bodies; <= 0 selects MaxBodyBytes.
	MaxBodyBytes int64
	// Limiter tunes the concurrency limiter shared by every protected
	// route; the zero value selects the package defaults.
	Limiter resilience.LimiterConfig
	// RateLimit tunes per-client token buckets; RPS <= 0 disables rate
	// limiting.
	RateLimit resilience.RateLimiterConfig
	// Breaker tunes the per-endpoint circuit breakers; the zero value
	// selects the package defaults.
	Breaker resilience.BreakerConfig
}

// API is one service's admission stack and response writers.
type API struct {
	// Log is the base logger (nil: slog.Default()), Reg the registry
	// behind /metrics and MaxBody the request-body cap.
	Log     *slog.Logger
	Reg     *obs.Registry
	MaxBody int64
	// Limiter is the concurrency limiter shared by every protected route.
	Limiter *resilience.Limiter

	rate    *resilience.RateLimiter
	breaker resilience.BreakerConfig
}

// New builds the admission stack of cfg, reporting into reg.
func New(cfg Config, reg *obs.Registry) *API {
	a := &API{Log: cfg.Logger, Reg: reg, MaxBody: cfg.MaxBodyBytes, breaker: cfg.Breaker}
	if a.MaxBody <= 0 {
		a.MaxBody = MaxBodyBytes
	}
	a.Limiter = resilience.NewLimiter(cfg.Limiter, reg)
	a.rate = resilience.NewRateLimiter(cfg.RateLimit, reg)
	return a
}

// Mux returns a new mux serving GET /healthz and GET /metrics, for the
// caller to add its routes to.
func (a *API) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		a.WriteJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", a.Reg.Handler())
	return mux
}

// Wrap puts the obs middleware (request IDs, access logs, per-route metrics
// labelled by route, panic recovery) around h.
func (a *API) Wrap(h http.Handler, route func(*http.Request) string) http.Handler {
	return obs.Middleware{Reg: a.Reg, Log: a.Log, Route: route}.Wrap(h)
}

// Protect wraps an expensive handler with the admission stack, outermost
// first: per-client rate limit (429), a circuit breaker of endpoint's own
// (503), then the shared concurrency limiter with its FIFO wait queue (503).
// The handler's own 5xx responses — and panics, which propagate to the obs
// recovery middleware — count as breaker failures. Sheds are Ignored, both
// the limiter's and those the handler answers through ShedError, so neither
// overload nor a transient backend condition can trip a healthy endpoint's
// circuit.
func (a *API) Protect(endpoint string, next http.HandlerFunc) http.HandlerFunc {
	br := resilience.NewBreaker(endpoint, a.breaker, a.Reg)
	return func(w http.ResponseWriter, r *http.Request) {
		if !a.AllowRate(w, r) {
			return
		}
		call, err := br.Allow()
		if err != nil {
			a.ShedError(w, r, err)
			return
		}
		release, err := a.Limiter.Acquire(r.Context())
		if err != nil {
			call.Record(resilience.Ignored, 0)
			a.ShedError(w, r, err)
			return
		}
		defer release()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		completed := false
		defer func() {
			// No recover: a panic still records a Failure here and then
			// propagates to obs.Middleware's recovery, which owns the 500.
			switch {
			case !completed || !sw.shed && sw.status >= http.StatusInternalServerError:
				call.Record(resilience.Failure, time.Since(start))
			case sw.shed:
				call.Record(resilience.Ignored, 0)
			default:
				call.Record(resilience.Success, time.Since(start))
			}
		}()
		next(sw, r)
		completed = true
	}
}

// Body returns r's body capped at MaxBody bytes. A body whose Content-Length
// is over the cap is refused before a byte of it is read, with the error a
// read past the cap returns.
func (a *API) Body(w http.ResponseWriter, r *http.Request) (io.Reader, error) {
	if r.ContentLength > a.MaxBody {
		return nil, &http.MaxBytesError{Limit: a.MaxBody}
	}
	return http.MaxBytesReader(w, r.Body, a.MaxBody), nil
}

// AllowRate applies the per-client rate limit on its own, for routes
// outside Protect: over the limit it answers 429 and returns false.
func (a *API) AllowRate(w http.ResponseWriter, r *http.Request) bool {
	if !a.rate.Enabled() {
		return true
	}
	if err := a.rate.Allow(clientKey(r)); err != nil {
		a.ShedError(w, r, err)
		return false
	}
	return true
}

// clientKey identifies the caller for rate limiting: the X-Client-ID header
// when present (trusted deployments put a tenant id there), else the remote
// host without the ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// statusWriter captures what Protect needs to classify the response for
// the circuit breaker: the status code, and whether ShedError answered it.
type statusWriter struct {
	http.ResponseWriter
	status int
	shed   bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// WriteJSON writes v; an encoder failure mid-stream means the client gets a
// truncated reply, so the failure is at least logged with the request ID
// and counted rather than swallowed.
func (a *API) WriteJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		a.Reg.Counter("http_response_encode_errors_total").Inc()
		obs.LoggerFrom(r.Context(), a.Log).Error("encode response",
			"status", status, "err", err)
	}
}

// errorBody is the single JSON error envelope every rejection uses: a
// human-readable message, a machine-readable reason, the request ID for log
// correlation, and (for shed work only) the back-off hint mirrored from the
// Retry-After header.
type errorBody struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason,omitempty"`
	RequestID         string  `json:"request_id,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// WriteError writes the envelope; retryAfter > 0 also sets the Retry-After
// header, in whole seconds rounded up (so never below 1).
func (a *API) WriteError(w http.ResponseWriter, r *http.Request, status int, reason string, retryAfter time.Duration, err error) {
	body := errorBody{
		Error:     err.Error(),
		Reason:    reason,
		RequestID: obs.RequestIDFrom(r.Context()),
	}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body.RetryAfterSeconds = retryAfter.Seconds()
	}
	a.WriteJSON(w, r, status, body)
}

// ShedError maps a rejection onto the envelope: a *resilience.Shed keeps its
// typed reason and Retry-After hint, with 429 for rate-limited callers and
// 503 for every other shed; any other error is a 503 "unavailable". Inside
// Protect, a shed answer is recorded as Ignored by the breaker.
func (a *API) ShedError(w http.ResponseWriter, r *http.Request, err error) {
	var sh *resilience.Shed
	if !errors.As(err, &sh) {
		a.WriteError(w, r, http.StatusServiceUnavailable, "unavailable", 0, err)
		return
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.shed = true
	}
	status := http.StatusServiceUnavailable
	if sh.Reason == resilience.ReasonRateLimited {
		status = http.StatusTooManyRequests
	}
	a.WriteError(w, r, status, sh.Reason, sh.RetryAfter, err)
}
