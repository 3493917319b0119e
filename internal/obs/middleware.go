package obs

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

// reqKey carries a *reqInfo.
const reqKey ctxKey = 0

// reqInfo is what Middleware.Wrap puts in a request's context: the request
// ID and the base logger that LoggerFrom tags with it.
type reqInfo struct {
	id  string
	log *slog.Logger
}

// ridSeq and ridBase make request IDs unique within a process and unlikely
// to collide across restarts (the base mixes the start time and the PID).
var (
	ridSeq  atomic.Int64
	ridBase = fmt.Sprintf("%x-%x-", time.Now().UnixNano()&0xffffff, os.Getpid()&0xffff)
)

// NewRequestID returns a fresh process-unique request ID: the base, then
// the sequence number zero-padded to at least six digits.
func NewRequestID() string {
	var buf, digits [48]byte
	b := append(buf[:0], ridBase...)
	d := strconv.AppendInt(digits[:0], ridSeq.Add(1), 10)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// RequestIDFrom returns the request ID installed by Middleware.Wrap, or ""
// outside an instrumented request.
func RequestIDFrom(ctx context.Context) string {
	if ri, ok := ctx.Value(reqKey).(*reqInfo); ok {
		return ri.id
	}
	return ""
}

// LoggerFrom returns the middleware's logger tagged with the request ID
// inside a request instrumented by Middleware.Wrap, or fallback outside
// one. A nil fallback resolves to slog.Default().
func LoggerFrom(ctx context.Context, fallback *slog.Logger) *slog.Logger {
	if ri, ok := ctx.Value(reqKey).(*reqInfo); ok {
		return ri.log.With("request_id", ri.id)
	}
	if fallback != nil {
		return fallback
	}
	return slog.Default()
}

// respWriter records status and bytes written so the middleware can log and
// label metrics after the handler returns.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (rw *respWriter) WriteHeader(status int) {
	if rw.wrote {
		return
	}
	rw.wrote = true
	rw.status = status
	rw.ResponseWriter.WriteHeader(status)
}

func (rw *respWriter) Write(p []byte) (int, error) {
	if !rw.wrote {
		rw.WriteHeader(http.StatusOK)
	}
	n, err := rw.ResponseWriter.Write(p)
	rw.bytes += int64(n)
	return n, err
}

func (rw *respWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware is the request-lifecycle stack: request IDs, per-request
// structured logs, per-route counters and latency histograms, in-flight
// gauge, and panic recovery that answers a JSON 500 instead of killing the
// connection.
type Middleware struct {
	// Reg receives the metrics; nil disables instrumentation.
	Reg *Registry
	// Log is the base structured logger; nil selects slog.Default().
	Log *slog.Logger
	// Route maps a request to a bounded-cardinality route label for
	// metrics; nil uses the raw URL path (fine only for static routes).
	Route func(*http.Request) string
}

// Wrap applies the stack to next. Order (outermost first): request ID +
// logger injection, panic recovery, metrics + access log.
func (m Middleware) Wrap(next http.Handler) http.Handler {
	base := m.Log
	if base == nil {
		base = slog.Default()
	}
	var (
		inflight *Gauge
		routes   *routeMetrics
	)
	if m.Reg != nil {
		inflight = m.Reg.Gauge("http_inflight_requests")
		routes = &routeMetrics{reg: m.Reg, m: make(map[routeStatus]routeHandles)}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		ctx := context.WithValue(r.Context(), reqKey, &reqInfo{id: rid, log: base})
		r = r.WithContext(ctx)

		route := r.URL.Path
		if m.Route != nil {
			route = m.Route(r)
		}
		if m.Reg != nil {
			inflight.Add(1)
		}
		rw := &respWriter{ResponseWriter: w, status: http.StatusOK}

		defer func() {
			panicked := recover()
			if panicked != nil {
				if m.Reg != nil {
					m.Reg.Counter("http_panics_total").Inc()
				}
				base.LogAttrs(ctx, slog.LevelError, "panic in handler",
					slog.String("request_id", rid),
					slog.String("method", r.Method), slog.String("route", route),
					slog.String("panic", fmt.Sprint(panicked)), slog.String("stack", string(debug.Stack())))
				if !rw.wrote {
					rw.Header().Set("Content-Type", "application/json")
					rw.WriteHeader(http.StatusInternalServerError)
					fmt.Fprintf(rw, "{\"error\":\"internal server error\",\"request_id\":%q}\n", rid)
				}
			}
			elapsed := time.Since(start)
			if m.Reg != nil {
				inflight.Add(-1)
				h := routes.get(route, rw.status)
				h.requests.Inc()
				h.duration.Observe(elapsed.Seconds())
			}
			base.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("request_id", rid),
				slog.String("method", r.Method), slog.String("route", route), slog.String("path", r.URL.Path),
				slog.Int("status", rw.status), slog.Int64("bytes", rw.bytes),
				slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
				slog.String("remote", r.RemoteAddr))
		}()

		next.ServeHTTP(rw, r)
	})
}

// routeMetrics resolves the per-(route, status) request counter and the
// per-route latency histogram by name on the first request with that pair;
// later requests find both handles with one map lookup.
type routeMetrics struct {
	reg *Registry
	mu  sync.RWMutex
	m   map[routeStatus]routeHandles
}

type routeStatus struct {
	route  string
	status int
}

type routeHandles struct {
	requests *Counter
	duration *Histogram
}

func (rm *routeMetrics) get(route string, status int) routeHandles {
	k := routeStatus{route, status}
	rm.mu.RLock()
	h, ok := rm.m[k]
	rm.mu.RUnlock()
	if !ok {
		h = routeHandles{
			requests: rm.reg.Counter(fmt.Sprintf("http_requests_total{route=%q,code=\"%d\"}", route, status)),
			duration: rm.reg.Histogram(fmt.Sprintf("http_request_duration_seconds{route=%q}", route), nil),
		}
		rm.mu.Lock()
		rm.m[k] = h
		rm.mu.Unlock()
	}
	return h
}
