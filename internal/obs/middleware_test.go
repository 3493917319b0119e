package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestMiddlewareRequestID(t *testing.T) {
	reg := NewRegistry()
	var seen string
	h := Middleware{Reg: reg, Log: quietLogger()}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
		if LoggerFrom(r.Context(), nil) == nil {
			t.Error("no logger in context")
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" {
		t.Fatal("handler saw no request id")
	}
	if got := rec.Header().Get("X-Request-ID"); got != seen {
		t.Fatalf("header id %q != context id %q", got, seen)
	}

	// A caller-provided ID is propagated, not replaced.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-ID", "caller-42")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "caller-42" {
		t.Fatalf("caller id not propagated: %q", seen)
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := NewRegistry()
	h := Middleware{Reg: reg, Log: quietLogger()}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("kaboom")
		}
		w.WriteHeader(http.StatusOK)
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not JSON: %v (%q)", err, rec.Body.String())
	}
	if body["error"] == "" || body["request_id"] == "" {
		t.Fatalf("panic body = %v", body)
	}
	if got := reg.Counter("http_panics_total").Value(); got != 1 {
		t.Errorf("http_panics_total = %d", got)
	}

	// The handler chain stays serviceable after the panic.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d", rec.Code)
	}
	if g := reg.Gauge("http_inflight_requests").Value(); g != 0 {
		t.Errorf("inflight gauge leaked: %d", g)
	}
}

func TestMiddlewareMetricsAndLogs(t *testing.T) {
	reg := NewRegistry()
	var logBuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := Middleware{
		Reg:   reg,
		Log:   logger,
		Route: func(r *http.Request) string { return "/fixed" },
	}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/whatever", nil))
	}
	if got := reg.Counter(`http_requests_total{route="/fixed",code="418"}`).Value(); got != 3 {
		t.Errorf("requests counter = %d, want 3", got)
	}
	if got := reg.Histogram(`http_request_duration_seconds{route="/fixed"}`, nil).Count(); got != 3 {
		t.Errorf("duration histogram count = %d, want 3", got)
	}
	logs := logBuf.String()
	for _, want := range []string{"request_id=", "route=/fixed", "status=418", "duration_ms="} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %q:\n%s", want, logs)
		}
	}
}

// TestMiddlewareAccessLogShape pins the access line's keys and their order,
// and that LoggerFrom tags a handler's own lines with the request ID.
func TestMiddlewareAccessLogShape(t *testing.T) {
	var logBuf bytes.Buffer
	h := Middleware{Reg: NewRegistry(), Log: slog.New(slog.NewJSONHandler(&logBuf, nil))}.
		Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			LoggerFrom(r.Context(), nil).Info("inner")
			w.Write([]byte("ok"))
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	rid := rec.Header().Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]+-[0-9a-f]+-[0-9]{6,}$`).MatchString(rid) {
		t.Fatalf("request id %q not in the base-sequence format", rid)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want the handler's line and the access line, got:\n%s", logBuf.String())
	}
	var inner map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &inner); err != nil {
		t.Fatal(err)
	}
	if inner["msg"] != "inner" || inner["request_id"] != rid {
		t.Fatalf("handler line %s: want msg inner with request_id %q", lines[0], rid)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"time", "level", "msg", "request_id", "method", "route", "path", "status", "bytes", "duration_ms", "remote"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("access line keys %v, want %v", keys, want)
	}
}
