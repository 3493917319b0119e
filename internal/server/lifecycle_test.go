package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"convexcache/internal/obs"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

func TestMetricsEndpoint(t *testing.T) {
	h := New()
	// Generate traffic first so per-route series exist.
	if rec := doJSON(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	rec := doJSON(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`http_requests_total{route="/healthz",code="200"} 1`,
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{route="/healthz",le="+Inf"} 1`,
		"process_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if got := rec.Header().Get("X-Request-ID"); got == "" {
		t.Error("no X-Request-ID header on /metrics")
	}
}

func TestMetricsCountSimulation(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(Config{Registry: reg})
	h := s.handler()
	req := SimulateRequest{Trace: sampleTrace(), K: 4, Policies: []string{"lru"}}
	if rec := doJSON(t, h, "POST", "/v1/simulate", req); rec.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := reg.Counter("sim_runs_total").Value(); got != 1 {
		t.Errorf("sim_runs_total = %d", got)
	}
	if got := reg.Counter("sim_steps_total").Value(); got != int64(len(sampleTrace())) {
		t.Errorf("sim_steps_total = %d, want %d", got, len(sampleTrace()))
	}
}

// panicPolicy panics on the first victim selection, simulating a policy bug
// reached mid-replay.
type panicPolicy struct{}

func (panicPolicy) Name() string                                  { return "panic" }
func (panicPolicy) OnHit(step int, r trace.Request)               {}
func (panicPolicy) OnInsert(step int, r trace.Request)            {}
func (panicPolicy) Victim(step int, r trace.Request) trace.PageID { panic("injected policy panic") }
func (panicPolicy) OnEvict(step int, p trace.PageID)              {}
func (panicPolicy) Reset()                                        {}

func TestPanicRecoveryKeepsServerAlive(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(Config{Registry: reg})
	s.policyHook = func(name string) sim.Policy {
		if name == "panic" {
			return panicPolicy{}
		}
		return nil
	}
	h := s.handler()

	rec := doJSON(t, h, "POST", "/v1/simulate", SimulateRequest{
		Trace: sampleTrace(), K: 2, Policies: []string{"panic"},
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response not JSON: %v (%q)", err, rec.Body.String())
	}
	if body["error"] == "" {
		t.Fatalf("panic body = %v", body)
	}
	if got := reg.Counter("http_panics_total").Value(); got != 1 {
		t.Errorf("http_panics_total = %d", got)
	}
	// The mux must keep serving after the panic.
	if rec := doJSON(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-panic healthz = %d", rec.Code)
	}
}

func TestSimulateCancellationStopsReplay(t *testing.T) {
	// A trace longer than the engine's check cadence, with the request
	// context already cancelled: sim.RunContext must abort instead of
	// replaying everything, and the handler must account for it.
	var tj TraceJSON
	n := 4 * sim.CheckEverySteps
	for i := 0; i < n; i++ {
		tj = append(tj, [2]int64{0, int64(i % 512)})
	}
	raw, err := json.Marshal(SimulateRequest{Trace: tj, K: 8, Policies: []string{"lru"}})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	h := newService(Config{Registry: reg}).handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}
	if got := reg.Counter("sim_cancelled_total").Value(); got != 1 {
		t.Errorf("sim_cancelled_total = %d", got)
	}
	// The replay must have stopped near the first check, not consumed the
	// whole trace.
	if steps := reg.Counter("sim_steps_total").Value(); steps >= int64(n) {
		t.Errorf("sim consumed all %d steps despite cancellation", steps)
	}
	if runs := reg.Counter("sim_runs_total").Value(); runs != 0 {
		t.Errorf("cancelled run counted as completed: %d", runs)
	}
}

func TestMRCMaxSizeClamped(t *testing.T) {
	rec := doJSON(t, New(), "POST", "/v1/mrc", MRCRequest{Trace: sampleTrace(), MaxSize: 1_000_000_000})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "max_size") {
		t.Errorf("error does not name max_size: %s", rec.Body.String())
	}
	// The ceiling itself stays valid.
	rec = doJSON(t, New(), "POST", "/v1/mrc", MRCRequest{Trace: sampleTrace(), MaxSize: 128})
	if rec.Code != http.StatusOK {
		t.Fatalf("max_size=128: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestSurplusCostSpecsRejected(t *testing.T) {
	// sampleTrace has 2 tenants; a third cost spec is a caller typo, not
	// something to silently drop.
	req := SimulateRequest{
		Trace: sampleTrace(), K: 4,
		Costs: []string{"linear:1", "linear:1", "monomial:1,2"},
	}
	rec := doJSON(t, New(), "POST", "/v1/simulate", req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("simulate surplus costs: status %d: %s", rec.Code, rec.Body.String())
	}
	mrc := MRCRequest{Trace: sampleTrace(), MaxSize: 8, K: 4,
		Costs: []string{"linear:1", "linear:1", "linear:1"}}
	rec = doJSON(t, New(), "POST", "/v1/mrc", mrc)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mrc surplus costs: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	h := New()
	for _, body := range []string{
		`{}{"k":1}`,
		`{} []`,
		`{"k":2, "trace":[[0,1]]} junk`,
	} {
		req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	// A single clean document with trailing whitespace stays accepted.
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(
		`{"k":2,"trace":[[0,1],[0,2],[0,1]]}`+"\n  \n"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("trailing whitespace rejected: %d %s", rec.Code, rec.Body.String())
	}
}

// TestDecodeRefusesAnnouncedOverCap: a JSON body whose Content-Length is
// over the cap is refused before a byte of it is read.
func TestDecodeRefusesAnnouncedOverCap(t *testing.T) {
	sv := NewService(Config{MaxBodyBytes: 64})
	defer sv.Close()
	body := `{"k":2,"trace":[[0,1],[0,2],[0,1]]}` + strings.Repeat(" ", 64)
	for _, path := range []string{"/v1/simulate", "/v1/jobs"} {
		var read bytes.Buffer
		req := httptest.NewRequest("POST", path, io.TeeReader(strings.NewReader(body), &read))
		req.ContentLength = int64(len(body))
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || decodeErr(t, rec).Reason != "bad_request" || read.Len() != 0 {
			t.Errorf("%s: status %d after reading %d bytes: %s", path, rec.Code, read.Len(), rec.Body.String())
		}
	}
}

func TestErrorResponsesCarryRequestID(t *testing.T) {
	rec := doJSON(t, New(), "POST", "/v1/simulate", SimulateRequest{K: 0})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] == "" || body["request_id"] != rec.Header().Get("X-Request-ID") {
		t.Errorf("request id mismatch: body %v header %q", body, rec.Header().Get("X-Request-ID"))
	}
}

func TestRouteLabelBoundsCardinality(t *testing.T) {
	for path, want := range map[string]string{
		"/healthz":            "/healthz",
		"/v1/simulate":        "/v1/simulate",
		"/v1/experiments/E2":  "/v1/experiments/{id}",
		"/v1/experiments/abc": "/v1/experiments/{id}",
		"/favicon.ico":        "other",
		"/v1/unknown":         "other",
	} {
		r := httptest.NewRequest("GET", path, nil)
		if got := routeLabel(r); got != want {
			t.Errorf("routeLabel(%s) = %q, want %q", path, got, want)
		}
	}
}

func TestJSON499BodyIsWellFormed(t *testing.T) {
	// `{}` body with `"x":1` trailing garbage on mrc: exercise decode on a
	// second route too.
	req := httptest.NewRequest("POST", "/v1/mrc", strings.NewReader(`{}{"x":1}`))
	rec := httptest.NewRecorder()
	New().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if !strings.Contains(body["error"], "trailing") {
		t.Errorf("error = %q", body["error"])
	}
}
