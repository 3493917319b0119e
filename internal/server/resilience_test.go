package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"convexcache/internal/obs"
	"convexcache/internal/resilience"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gatePolicy blocks on its first insert until the gate closes, holding a
// limiter slot (or a job worker) open for as long as the test needs.
type gatePolicy struct {
	gate <-chan struct{}
	once sync.Once
}

func (g *gatePolicy) Name() string                    { return "gate" }
func (g *gatePolicy) OnHit(step int, r trace.Request) {}
func (g *gatePolicy) OnInsert(step int, r trace.Request) {
	g.once.Do(func() { <-g.gate })
}
func (g *gatePolicy) Victim(step int, r trace.Request) trace.PageID { return r.Page }
func (g *gatePolicy) OnEvict(step int, p trace.PageID)              {}
func (g *gatePolicy) Reset()                                        {}

// tinyTrace fits entirely in a K=4 cache: only inserts, no evictions, so
// gatePolicy.Victim is never consulted.
func tinyTrace() TraceJSON { return TraceJSON{{0, 1}, {0, 2}, {0, 1}} }

// errEnvelope decodes the unified error body.
type errEnvelope struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason"`
	RequestID         string  `json:"request_id"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) errEnvelope {
	t.Helper()
	var e errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body not JSON: %v (%q)", err, rec.Body.String())
	}
	return e
}

func TestLimiterSaturationShedsWithRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	s := newService(Config{
		Registry: reg,
		Limiter:  resilience.LimiterConfig{MaxConcurrent: 2, MaxQueue: 2, MaxWait: 5 * time.Second},
	})
	s.policyHook = func(name string) sim.Policy {
		if name == "gate" {
			return &gatePolicy{gate: gate}
		}
		return nil
	}
	h := s.handler()

	const n = 8
	recs := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() {
			recs <- doJSONQuiet(h, "POST", "/v1/simulate", SimulateRequest{
				Trace: tinyTrace(), K: 4, Policies: []string{"gate"},
			})
		}()
	}
	// 2 run, 2 queue; the remaining 4 must shed immediately with queue_full.
	waitFor(t, "4 queue_full sheds", func() bool {
		return reg.Counter(`resilience_shed_total{reason="queue_full"}`).Value() == 4
	})
	close(gate)

	var ok200, shed503 int
	for i := 0; i < n; i++ {
		rec := <-recs
		switch rec.Code {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			shed503++
			if ra := rec.Header().Get("Retry-After"); ra == "" {
				t.Errorf("503 without Retry-After header")
			}
			e := decodeErr(t, rec)
			if e.Reason != resilience.ReasonQueueFull {
				t.Errorf("shed reason = %q, want %q", e.Reason, resilience.ReasonQueueFull)
			}
			if e.RetryAfterSeconds <= 0 {
				t.Errorf("retry_after_seconds = %v, want > 0", e.RetryAfterSeconds)
			}
			if e.RequestID == "" {
				t.Errorf("shed response missing request_id")
			}
		default:
			t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if ok200 != 4 || shed503 != 4 {
		t.Fatalf("got %d OK / %d shed, want 4 / 4", ok200, shed503)
	}
	if got := s.Limiter.Inflight(); got != 0 {
		t.Errorf("inflight = %d after drain, want 0", got)
	}
}

// doJSONQuiet is doJSON without *testing.T, safe inside goroutines.
func doJSONQuiet(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(Config{
		Registry: reg,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 3, OpenFor: time.Hour, // never half-opens within the test
		},
	})
	s.policyHook = func(name string) sim.Policy {
		if name == "panic" {
			return panicPolicy{}
		}
		return nil
	}
	h := s.handler()

	// sampleTrace has >2 distinct pages per tenant, so K=2 forces an
	// eviction and panicPolicy fires; each 500 is a breaker failure.
	bad := SimulateRequest{Trace: sampleTrace(), K: 2, Policies: []string{"panic"}}
	for i := 0; i < 3; i++ {
		if rec := doJSON(t, h, "POST", "/v1/simulate", bad); rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500", i, rec.Code)
		}
	}
	rec := doJSON(t, h, "POST", "/v1/simulate", bad)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status after trip = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	e := decodeErr(t, rec)
	if e.Reason != resilience.ReasonCircuitOpen {
		t.Fatalf("reason = %q, want %q", e.Reason, resilience.ReasonCircuitOpen)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("circuit_open 503 without Retry-After")
	}
	if got := reg.Counter(`resilience_breaker_trips_total{endpoint="/v1/simulate"}`).Value(); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}

	// Per-endpoint isolation: /v1/mrc has its own (closed) breaker, and
	// unprotected routes are untouched.
	if rec := doJSON(t, h, "POST", "/v1/mrc", MRCRequest{Trace: tinyTrace(), MaxSize: 4}); rec.Code != http.StatusOK {
		t.Errorf("mrc while simulate circuit open: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doJSON(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz while circuit open: %d", rec.Code)
	}
}

func TestRateLimitIsPerClient(t *testing.T) {
	s := newService(Config{
		RateLimit: resilience.RateLimiterConfig{RPS: 0.001, Burst: 2},
	})
	h := s.handler()
	req := SimulateRequest{Trace: tinyTrace(), K: 4, Policies: []string{"lru"}}

	do := func(client string) *httptest.ResponseRecorder {
		raw, _ := json.Marshal(req)
		r := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(raw))
		r.Header.Set("X-Client-ID", client)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	for i := 0; i < 2; i++ {
		if rec := do("alice"); rec.Code != http.StatusOK {
			t.Fatalf("alice request %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := do("alice")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: %d, want 429", rec.Code)
	}
	e := decodeErr(t, rec)
	if e.Reason != resilience.ReasonRateLimited || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("429 envelope = %+v, header %q", e, rec.Header().Get("Retry-After"))
	}
	// A different client has its own bucket.
	if rec := do("bob"); rec.Code != http.StatusOK {
		t.Fatalf("bob sharing alice's bucket: %d", rec.Code)
	}
}

func TestJobsHTTPLifecycle(t *testing.T) {
	sv := NewService(Config{})
	defer sv.Close()
	h := sv.Handler()

	// The async result must match the synchronous endpoint bit for bit.
	syncRec := doJSON(t, h, "POST", "/v1/simulate", SimulateRequest{
		Trace: sampleTrace(), K: 4, Policies: []string{"alg"},
	})
	if syncRec.Code != http.StatusOK {
		t.Fatalf("sync simulate: %d %s", syncRec.Code, syncRec.Body.String())
	}
	var syncResp SimulateResponse
	if err := json.Unmarshal(syncRec.Body.Bytes(), &syncResp); err != nil {
		t.Fatal(err)
	}

	rec := doJSON(t, h, "POST", "/v1/jobs", JobRequest{Trace: sampleTrace(), K: 4, Policy: "alg"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var st resilience.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.TotalSteps != len(sampleTrace()) {
		t.Fatalf("submit status = %+v", st)
	}

	waitFor(t, "job done", func() bool {
		rec := doJSON(t, h, "GET", "/v1/jobs/"+st.ID, nil)
		if rec.Code != http.StatusOK {
			return false
		}
		var cur resilience.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &cur); err != nil {
			return false
		}
		return cur.State == resilience.JobDone
	})

	rec = doJSON(t, h, "GET", "/v1/jobs/"+st.ID+"/result", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rec.Code, rec.Body.String())
	}
	var res JobResultResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(syncResp.Results[0])
	gotJSON, _ := json.Marshal(res.Result)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("async result %s != sync result %s", gotJSON, wantJSON)
	}

	// State machine edges over HTTP.
	if rec := doJSON(t, h, "GET", "/v1/jobs/job-999999", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", rec.Code)
	}
	if rec := doJSON(t, h, "DELETE", "/v1/jobs/"+st.ID, nil); rec.Code != http.StatusConflict {
		t.Errorf("cancel of done job: %d, want 409", rec.Code)
	}
	if e := decodeErr(t, doJSON(t, h, "GET", "/v1/jobs/nope/result", nil)); e.Reason != "not_found" {
		t.Errorf("unknown result reason = %q, want not_found", e.Reason)
	}
}

func TestJobsCancelResumeOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	s := newService(Config{Jobs: resilience.JobsConfig{Workers: 1}})
	s.policyHook = func(name string) sim.Policy {
		if name == "gate" {
			return &gatePolicy{gate: gate}
		}
		return nil
	}
	sv := &Service{svc: s, h: s.handler()}
	defer sv.Close()
	h := sv.Handler()

	// The gate job occupies the single worker...
	blocker := doJSON(t, h, "POST", "/v1/jobs", JobRequest{Trace: tinyTrace(), K: 4, Policy: "gate"})
	if blocker.Code != http.StatusAccepted {
		t.Fatalf("blocker submit: %d %s", blocker.Code, blocker.Body.String())
	}
	var blockerSt resilience.JobStatus
	if err := json.Unmarshal(blocker.Body.Bytes(), &blockerSt); err != nil {
		t.Fatal(err)
	}

	// ...so the alg job stays queued and can be cancelled deterministically.
	rec := doJSON(t, h, "POST", "/v1/jobs", JobRequest{Trace: sampleTrace(), K: 4})
	var st resilience.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, h, "DELETE", "/v1/jobs/"+st.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel queued: %d %s", rec.Code, rec.Body.String())
	}
	var cancelled resilience.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != resilience.JobCancelled {
		t.Fatalf("state after cancel = %q", cancelled.State)
	}
	if rec := doJSON(t, h, "GET", "/v1/jobs/"+st.ID+"/result", nil); rec.Code != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d, want 409", rec.Code)
	}

	rec = doJSON(t, h, "POST", "/v1/jobs/"+st.ID+"/resume", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("resume: %d %s", rec.Code, rec.Body.String())
	}
	close(gate)
	waitFor(t, "resumed job done", func() bool {
		var cur resilience.JobStatus
		rec := doJSON(t, h, "GET", "/v1/jobs/"+st.ID, nil)
		return json.Unmarshal(rec.Body.Bytes(), &cur) == nil && cur.State == resilience.JobDone
	})
	var cur resilience.JobStatus
	if err := json.Unmarshal(doJSON(t, h, "GET", "/v1/jobs/"+st.ID, nil).Body.Bytes(), &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", cur.Resumes)
	}
	if rec := doJSON(t, h, "GET", "/v1/jobs/"+st.ID+"/result", nil); rec.Code != http.StatusOK {
		t.Errorf("result after resume: %d %s", rec.Code, rec.Body.String())
	}
}

func TestJobSubmitValidation(t *testing.T) {
	sv := NewService(Config{})
	defer sv.Close()
	h := sv.Handler()
	for name, req := range map[string]JobRequest{
		"zero K":      {Trace: tinyTrace()},
		"bad policy":  {Trace: tinyTrace(), K: 4, Policy: "nope"},
		"empty trace": {K: 4},
	} {
		rec := doJSON(t, h, "POST", "/v1/jobs", req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}
}

func TestJobSubmitRateLimitedBeforeDecode(t *testing.T) {
	sv := NewService(Config{RateLimit: resilience.RateLimiterConfig{RPS: 0.001, Burst: 1}})
	defer sv.Close()
	h := sv.Handler()
	post := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{not json`))
		r.Header.Set("X-Client-ID", "alice")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	// The burst admits one request, whose body then fails to decode.
	if rec := post(); rec.Code != http.StatusBadRequest {
		t.Fatalf("first submit: %d, want 400: %s", rec.Code, rec.Body.String())
	}
	// Over the limit, the body must not be read at all.
	rec := post()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if e := decodeErr(t, rec); e.Reason != resilience.ReasonRateLimited {
		t.Fatalf("reason = %q, want %q", e.Reason, resilience.ReasonRateLimited)
	}
}
