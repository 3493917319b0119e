package cached

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"convexcache/internal/httpapi"
	"convexcache/internal/resilience"
	"convexcache/internal/trace"
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

// TestHTTPCacheBodyCap covers the body cap on POST /v1/cache: a body over
// MaxBodyBytes is refused whether its length is announced or it arrives
// chunked, as is a body shorter than its Content-Length, and none of them
// applies anything. A body of blank lines up to the line limit is an empty
// batch.
func TestHTTPCacheBodyCap(t *testing.T) {
	svc := newTestService(t, 8, 2, 2)
	cfg := quietHTTP()
	cfg.MaxBodyBytes = 1 << 10
	h := svc.Handler(cfg)
	lengths := make(chan int64, 3)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lengths <- r.ContentLength
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	var big []byte
	for i := 0; len(big) <= int(cfg.MaxBodyBytes); i++ {
		big = FormatRequest(big, Request{Op: OpGet, Tenant: trace.Tenant(i % 2), Key: fmt.Appendf(nil, "k%d", i)})
	}
	before := svc.Stats()
	refused := func(name string, resp *http.Response, err error, wantLen int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"reason":"bad_request"`) {
			t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		if got := <-lengths; got != wantLen {
			t.Errorf("%s: the server saw Content-Length %d, want %d", name, got, wantLen)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/cache", "text/plain", bytes.NewReader(big))
	refused("announced", resp, err, int64(len(big)))
	// A reader of unknown length makes the client send the body chunked.
	resp, err = http.Post(srv.URL+"/v1/cache", "text/plain", struct{ io.Reader }{bytes.NewReader(big)})
	refused("chunked", resp, err, -1)

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	short := "GET 0 a\nGET 1 b\n"
	if _, err := fmt.Fprintf(conn, "POST /v1/cache HTTP/1.1\r\nHost: cache\r\nContent-Length: %d\r\n\r\n%s", len(short)+100, short); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
	refused("short body", resp, err, int64(len(short)+100))

	// The announced case is refused before a byte of the body is read.
	var read bytes.Buffer
	req := httptest.NewRequest("POST", "/v1/cache", io.TeeReader(bytes.NewReader(big), &read))
	req.ContentLength = int64(len(big))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"reason":"bad_request"`) || read.Len() != 0 {
		t.Errorf("announced, in process: status %d after reading %d bytes: %s", rec.Code, read.Len(), rec.Body.String())
	}

	if after := svc.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused body changed the stats:\n  before %+v\n  after  %+v", before, after)
	}

	rec = doText(t, svc.Handler(quietHTTP()), "POST", "/v1/cache", strings.Repeat("\n", 1<<20))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "empty batch") {
		t.Fatalf("1 MiB of blank lines: status %d: %s", rec.Code, rec.Body.String())
	}

	// Blank lines that just fit a pooled body buffer: the scratch that
	// served them goes back to the pool holding no more request bytes than
	// body bytes.
	st := &handlerState{API: httpapi.New(quietHTTP(), svc.reg), svc: svc}
	sc := new(wireScratch)
	st.scratch.New = func() any { return sc }
	rec = httptest.NewRecorder()
	st.handleCache(rec, httptest.NewRequest("POST", "/v1/cache", strings.NewReader(strings.Repeat("\n", maxPooledBody-bytes.MinRead))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "empty batch") {
		t.Fatalf("blank lines under the pooled cap: status %d: %s", rec.Code, rec.Body.String())
	}
	if sc.body.Cap() > maxPooledBody {
		t.Fatalf("the body buffer grew to %d bytes, past the %d pooled: this case no longer reaches the pool", sc.body.Cap(), maxPooledBody)
	}
	if n := cap(sc.reqs) * int(unsafe.Sizeof(Request{})); n > maxPooledBody {
		t.Fatalf("a pooled scratch holds %d bytes of requests, over the %d-byte cap", n, maxPooledBody)
	}
}

// TestHTTPCacheKeysOutliveTheBody pins what lets the handler reuse its body
// buffer: Apply copies every key byte it keeps. It serves three bodies from
// one scratch, as the pool hands it out. The second overwrites the first's
// bytes in place; the third names the first's keys again, at other offsets,
// and must hit. Keys over eight bytes are compared byte for byte by the key
// table, so the long key catches a table that kept the body's bytes; Verify
// catches a log that did.
func TestHTTPCacheKeysOutliveTheBody(t *testing.T) {
	svc := newTestService(t, 8, 1, 2)
	st := &handlerState{API: httpapi.New(quietHTTP(), svc.reg), svc: svc}
	sc := new(wireScratch)
	serve := func(body, want string) {
		t.Helper()
		rec := httptest.NewRecorder()
		st.serveCache(rec, httptest.NewRequest("POST", "/v1/cache", strings.NewReader(body)), sc)
		var resp CacheResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if resp.Results != want {
			t.Fatalf("POST %q: results %q, want %q", body, resp.Results, want)
		}
	}
	serve("GET 0 aaaa\nGET 0 long-key-aaaaaaaa\n", "MM")
	buf := &sc.body.Bytes()[0]
	serve("PUT 1 bbbb\nPUT 1 long-key-bbbbbbbb\n", "MM")
	if &sc.body.Bytes()[0] != buf {
		t.Fatal("the second body did not reuse the buffer")
	}
	serve("GET 0 long-key-aaaaaaaa\nGET 0 aaaa\n", "HH")
	rep, err := svc.Verify(context.Background())
	if err != nil || !rep.Clean {
		t.Fatalf("verify: %v %+v", err, rep)
	}
}

// TestHTTPCacheConcurrentPosts has 8 goroutines POST distinct keys through
// one handler, so pooled scratches pass between goroutines while shards
// serve other batches: every reply must count its own batch, all misses,
// and the final stats must add up.
func TestHTTPCacheConcurrentPosts(t *testing.T) {
	const clients, posts, batch, tenants = 8, 25, 64, 2
	svc := newTestService(t, 256, 2, tenants)
	h := svc.Handler(quietHTTP())
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				var body []byte
				for i := 0; i < batch; i++ {
					body = FormatRequest(body, Request{Op: OpGet, Tenant: trace.Tenant(c % tenants), Key: fmt.Appendf(nil, "c%d-p%d-k%d", c, p, i)})
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cache", bytes.NewReader(body)))
				var resp CacheResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("client %d post %d: status %d: %s", c, p, rec.Code, rec.Body.String())
					return
				}
				if resp.Requests != batch || resp.Misses != batch || resp.Results != strings.Repeat("M", batch) {
					t.Errorf("client %d post %d: %+v", c, p, resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := svc.Stats()
	const total = clients * posts * batch
	if st.Requests != total || st.Misses != total || st.Hits != 0 {
		t.Fatalf("stats: requests %d, misses %d, hits %d; want %d misses", st.Requests, st.Misses, st.Hits, total)
	}
	for _, ts := range st.PerTenant {
		if ts.Requests != total/tenants {
			t.Errorf("tenant %d: %d requests, want %d", ts.Tenant, ts.Requests, total/tenants)
		}
	}
	rep, err := svc.Verify(context.Background())
	if err != nil || !rep.Clean {
		t.Fatalf("verify: %v %+v", err, rep)
	}
}
