package cached

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"convexcache/internal/resilience"
)

func quietHTTP() HTTPConfig {
	return HTTPConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func doText(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHTTPCacheEndpoint(t *testing.T) {
	svc := newTestService(t, 8, 2, 2)
	h := svc.Handler(quietHTTP())

	rec := doText(t, h, "POST", "/v1/cache", "GET 0 alpha\nGET 1 beta\nGET 0 alpha\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CacheResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests != 3 || resp.Hits != 1 || resp.Misses != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Results != "MMH" {
		t.Fatalf("results = %q", resp.Results)
	}

	// Bad grammar → 400 naming the line.
	rec = doText(t, h, "POST", "/v1/cache", "GET 0 ok\nBOGUS\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad line: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "line 2") {
		t.Errorf("error does not name the line: %s", rec.Body.String())
	}
	// Out-of-range tenant → 400.
	rec = doText(t, h, "POST", "/v1/cache", "GET 9 key\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad tenant: status %d", rec.Code)
	}
	// Empty body → 400.
	rec = doText(t, h, "POST", "/v1/cache", "\n\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", rec.Code)
	}
}

func TestHTTPStatsAndVerify(t *testing.T) {
	svc := newTestService(t, 16, 4, 2)
	h := svc.Handler(quietHTTP())

	var wire []byte
	for _, r := range genRequests(9, 2, 100, 2000) {
		wire = FormatRequest(wire, r)
	}
	rec := doText(t, h, "POST", "/v1/cache", string(wire))
	if rec.Code != http.StatusOK {
		t.Fatalf("load: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = doText(t, h, "GET", "/v1/cache/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2000 || len(st.Shards) != 4 {
		t.Fatalf("stats = %+v", st)
	}

	rec = doText(t, h, "POST", "/v1/cache/verify", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("verify: status %d: %s", rec.Code, rec.Body.String())
	}
	var rep VerifyReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Requests != 2000 || rep.Shards != 4 {
		t.Fatalf("report = %+v", rep)
	}

	// Per-shard metrics are exported.
	rec = doText(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	for _, want := range []string{`cached_requests_total{shard="0"}`, `cached_hits_total{shard="3"}`, `cached_occupancy_pages{shard="1"}`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestHTTPDrainingReturns503(t *testing.T) {
	svc, err := New(Config{K: 4, Shards: 1, Tenants: 1, NewPolicy: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler(quietHTTP())
	svc.Close()
	rec := doText(t, h, "POST", "/v1/cache", "GET 0 key\n")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("body = %s", rec.Body.String())
	}
	// Verify still works on the frozen state.
	rec = doText(t, h, "POST", "/v1/cache/verify", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("verify after close: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHTTPRateLimit(t *testing.T) {
	svc := newTestService(t, 4, 1, 1)
	cfg := quietHTTP()
	cfg.RateLimit = resilience.RateLimiterConfig{RPS: 1, Burst: 2}
	h := svc.Handler(cfg)
	codes := map[int]int{}
	for i := 0; i < 10; i++ {
		rec := doText(t, h, "POST", "/v1/cache", "GET 0 key\n")
		codes[rec.Code]++
	}
	if codes[http.StatusTooManyRequests] == 0 {
		t.Errorf("no 429s under burst: %v", codes)
	}
	if codes[http.StatusOK] == 0 {
		t.Errorf("no requests admitted: %v", codes)
	}
}

func TestHTTPHealthz(t *testing.T) {
	svc := newTestService(t, 4, 1, 1)
	h := svc.Handler(quietHTTP())
	if rec := doText(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

// TestHTTPShardDownLeavesBreakerClosed pins shard_down as a shed, not a
// failure: a rebuilding shard's 503s must not open the /v1/cache circuit,
// neither for batches on healthy shards nor for the shard once it is back.
func TestHTTPShardDownLeavesBreakerClosed(t *testing.T) {
	svc := newTestService(t, 8, 2, 1)
	cfg := quietHTTP()
	cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 3}
	h := svc.Handler(cfg)
	keyOn := func(shard int) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("k%d", i); svc.route(0, []byte(k)) == shard {
				return k
			}
		}
	}
	down, healthy := keyOn(1), keyOn(0)
	svc.shards[1].down.Store(true)
	for i := 0; i <= cfg.Breaker.FailureThreshold; i++ {
		rec := doText(t, h, "POST", "/v1/cache", "GET 0 "+down+"\nGET 0 "+healthy+"\n")
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"reason":"shard_down"`) {
			t.Fatalf("batch %d on the down shard: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Errorf("batch %d: Retry-After = %q, want 1", i, ra)
		}
	}
	if rec := doText(t, h, "POST", "/v1/cache", "GET 0 "+healthy+"\n"); rec.Code != http.StatusOK {
		t.Fatalf("batch on the healthy shard while the other is down: status %d: %s", rec.Code, rec.Body.String())
	}
	svc.shards[1].down.Store(false)
	if rec := doText(t, h, "POST", "/v1/cache", "GET 0 "+down+"\n"); rec.Code != http.StatusOK {
		t.Fatalf("batch after the shard came back: status %d: %s", rec.Code, rec.Body.String())
	}
}
