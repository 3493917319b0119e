package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"convexcache/internal/obs"
	"convexcache/internal/resilience"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func shed(reason string, after time.Duration) error {
	return &resilience.Shed{Reason: reason, RetryAfter: after, Detail: "test"}
}

// TestErrorEnvelope pins the one error envelope: the status of every shed
// reason, Retry-After rounding, the request ID, and non-shed errors.
func TestErrorEnvelope(t *testing.T) {
	a := New(Config{Logger: quiet}, obs.NewRegistry())
	shedWith := func(err error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { a.ShedError(w, r, err) }
	}
	errorWith := func(retryAfter time.Duration) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			a.WriteError(w, r, http.StatusServiceUnavailable, "draining", retryAfter, errors.New("closing"))
		}
	}
	cases := []struct {
		name       string
		h          http.HandlerFunc
		status     int
		reason     string
		retryAfter string // the header; "" when absent
		retrySecs  float64
	}{
		{"queue_full", shedWith(shed(resilience.ReasonQueueFull, 10*time.Second)), 503, "queue_full", "10", 10},
		{"queue_timeout", shedWith(shed(resilience.ReasonQueueTimeout, time.Second)), 503, "queue_timeout", "1", 1},
		{"deadline", shedWith(shed(resilience.ReasonDeadline, time.Second)), 503, "deadline", "1", 1},
		{"circuit_open", shedWith(shed(resilience.ReasonCircuitOpen, 3*time.Second)), 503, "circuit_open", "3", 3},
		{"rate_limited", shedWith(shed(resilience.ReasonRateLimited, time.Second)), 429, "rate_limited", "1", 1},
		{"job_store_full", shedWith(shed(resilience.ReasonJobStoreFull, time.Second)), 503, "job_store_full", "1", 1},
		{"shard_down", shedWith(shed(resilience.ReasonShardDown, time.Second)), 503, "shard_down", "1", 1},
		{"wrapped shed", shedWith(fmt.Errorf("admit: %w", shed(resilience.ReasonRateLimited, time.Second))), 429, "rate_limited", "1", 1},
		{"not a shed", shedWith(errors.New("boom")), 503, "unavailable", "", 0},
		{"1ms rounds up", errorWith(time.Millisecond), 503, "draining", "1", 0.001},
		{"1.5s rounds up", errorWith(1500 * time.Millisecond), 503, "draining", "2", 1.5},
		{"no hint", errorWith(0), 503, "draining", "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/x", nil)
			req.Header.Set("X-Request-ID", "rid-"+tc.name)
			rec := httptest.NewRecorder()
			a.Wrap(tc.h, nil).ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Errorf("status = %d, want %d", rec.Code, tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
			var body errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body not JSON: %v (%q)", err, rec.Body.String())
			}
			if body.Reason != tc.reason || body.Error == "" {
				t.Errorf("envelope = %+v, want reason %q and an error", body, tc.reason)
			}
			if body.RequestID != "rid-"+tc.name || body.RequestID != rec.Header().Get("X-Request-ID") {
				t.Errorf("request_id = %q, header %q", body.RequestID, rec.Header().Get("X-Request-ID"))
			}
			if body.RetryAfterSeconds != tc.retrySecs {
				t.Errorf("retry_after_seconds = %v, want %v", body.RetryAfterSeconds, tc.retrySecs)
			}
		})
	}
}

func TestBreakerClassification(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(code) }
	}
	cases := []struct {
		name     string
		h        http.HandlerFunc
		holdSlot bool // the limiter's only slot is taken, so Protect sheds the call
		want     resilience.Outcome
	}{
		{"200", status(http.StatusOK), false, resilience.Success},
		{"implicit 200", func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("ok")) }, false, resilience.Success},
		{"400", status(http.StatusBadRequest), false, resilience.Success},
		{"404", status(http.StatusNotFound), false, resilience.Success},
		{"500", status(http.StatusInternalServerError), false, resilience.Failure},
		{"503 not shed", status(http.StatusServiceUnavailable), false, resilience.Failure},
		{"panic", func(http.ResponseWriter, *http.Request) { panic("handler bug") }, false, resilience.Failure},
		{"limiter shed", status(http.StatusOK), true, resilience.Ignored},
	}
	for _, tc := range cases {
		if got := outcome(t, tc.h, tc.holdSlot); got != tc.want {
			t.Errorf("%s: breaker outcome %v, want %v", tc.name, got, tc.want)
		}
	}
	// A shed the handler answers itself goes through the API's own
	// ShedError, so it needs the API under test.
	if got := outcome(t, nil, false); got != resilience.Ignored {
		t.Errorf("handler shed: breaker outcome %v, want %v", got, resilience.Ignored)
	}
}

// outcome reports how Protect records one call to h for the circuit
// breaker, read off the breaker itself: at threshold 1 only a Failure trips
// it, and between two failures at threshold 2 a Success resets the count
// where an Ignored call leaves it to trip. A nil h answers a shard_down shed
// through ShedError.
func outcome(t *testing.T, h http.HandlerFunc, holdSlot bool) resilience.Outcome {
	t.Helper()
	tripped := func(threshold int, calls ...bool) bool { // true: the call under test; false: a 500
		reg := obs.NewRegistry()
		a := New(Config{
			Logger:  quiet,
			Limiter: resilience.LimiterConfig{MaxConcurrent: 1},
			Breaker: resilience.BreakerConfig{FailureThreshold: threshold, OpenFor: time.Hour},
		}, reg)
		probing := false
		handler := a.Wrap(a.Protect("/x", func(w http.ResponseWriter, r *http.Request) {
			switch {
			case !probing:
				w.WriteHeader(http.StatusInternalServerError)
			case h == nil:
				a.ShedError(w, r, shed(resilience.ReasonShardDown, time.Second))
			default:
				h(w, r)
			}
		}), nil)
		for _, probe := range calls {
			probing = probe
			req := httptest.NewRequest(http.MethodPost, "/x", nil)
			release := func() {}
			if probe && holdSlot {
				var err error
				if release, err = a.Limiter.Acquire(context.Background()); err != nil {
					t.Fatal(err)
				}
				// No time left to queue: the limiter sheds at once.
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				defer cancel()
				req = req.WithContext(ctx)
			}
			handler.ServeHTTP(httptest.NewRecorder(), req)
			release()
		}
		return reg.Counter(`resilience_breaker_trips_total{endpoint="/x"}`).Value() > 0
	}
	switch {
	case tripped(1, true):
		return resilience.Failure
	case tripped(2, false, true, false):
		return resilience.Ignored
	default:
		return resilience.Success
	}
}

func TestAllowRate(t *testing.T) {
	a := New(Config{Logger: quiet, RateLimit: resilience.RateLimiterConfig{RPS: 0.001, Burst: 1}}, obs.NewRegistry())
	allow := func(client, remote string) (bool, int) {
		req := httptest.NewRequest(http.MethodPost, "/x", nil)
		req.RemoteAddr = remote
		if client != "" {
			req.Header.Set("X-Client-ID", client)
		}
		rec := httptest.NewRecorder()
		ok := a.AllowRate(rec, req)
		return ok, rec.Code
	}
	if ok, _ := allow("alice", "10.0.0.1:1000"); !ok {
		t.Fatal("first request of alice refused")
	}
	if ok, code := allow("alice", "10.0.0.2:1000"); ok || code != http.StatusTooManyRequests {
		t.Fatalf("alice over her burst: allowed %v, status %d", ok, code)
	}
	// Without X-Client-ID the key is the remote host, whatever the port.
	if ok, _ := allow("", "10.0.0.3:1000"); !ok {
		t.Fatal("first request of 10.0.0.3 refused")
	}
	if ok, code := allow("", "10.0.0.3:2000"); ok || code != http.StatusTooManyRequests {
		t.Fatalf("10.0.0.3 over its burst from a new port: allowed %v, status %d", ok, code)
	}
}
