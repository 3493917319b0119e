// Package server exposes the simulator over HTTP with a small JSON API, so
// the library can back a capacity-planning or SLA-what-if service:
//
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus-text metrics (internal/obs)
//	GET  /v1/policies          registered policy names
//	POST /v1/simulate          replay a trace through policies
//	POST /v1/mrc               exact LRU miss-ratio curves per tenant
//	POST /v1/experiments/{id}  run one experiment (quick mode) as JSON
//	POST /v1/jobs              submit an async replay job (202)
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/result  job result (409 until done)
//	DELETE /v1/jobs/{id}       cancel a job
//	POST /v1/jobs/{id}/resume  re-queue a cancelled/failed job from step 0
//
// Everything is stdlib net/http; request bodies are size-capped. Every route
// is wrapped by the obs middleware stack: request IDs, structured access
// logs, per-route counters and latency histograms, and panic recovery that
// answers a JSON 500 instead of killing the connection. Trace replays run
// under the request context (sim.RunContext), so a client disconnect or
// deadline stops the simulation instead of burning CPU for a caller that is
// already gone.
//
// The expensive synchronous endpoints (/v1/simulate, /v1/mrc,
// /v1/experiments/{id}) additionally sit behind the internal/httpapi
// admission stack: per-client token-bucket rate limiting (429), a per-route
// circuit breaker (503), and the server-wide concurrency limiter with its
// bounded FIFO wait queue (503); POST /v1/jobs gets the rate limit alone.
// Every rejection uses one JSON envelope with a machine-readable "reason"
// and, for shed work, a Retry-After hint in both the header and the body.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"convexcache/internal/analysis"
	"convexcache/internal/costfn"
	"convexcache/internal/experiments"
	"convexcache/internal/httpapi"
	"convexcache/internal/obs"
	"convexcache/internal/resilience"
	"convexcache/internal/runspec"
	"convexcache/internal/sim"
)

// MaxMRCSize caps MRCRequest.MaxSize: each unit allocates O(tenants)
// float64s of curve, so an unbounded value lets one request OOM the
// process.
const MaxMRCSize = 1 << 16

// StatusClientClosedRequest is nginx's 499: the client went away before the
// response was ready. Nothing reads the reply, but the status keeps access
// logs and metrics honest about why the request ended.
const StatusClientClosedRequest = 499

// Config tunes the service; the zero value is production-usable.
type Config struct {
	// MaxBodyBytes caps request bodies; <= 0 selects
	// httpapi.MaxBodyBytes.
	MaxBodyBytes int64
	// Logger receives the structured request logs; nil selects
	// slog.Default().
	Logger *slog.Logger
	// Registry receives the service metrics and backs /metrics; nil
	// creates a fresh registry.
	Registry *obs.Registry
	// Limiter tunes the server-wide concurrency limiter guarding the
	// expensive endpoints; the zero value selects the package defaults.
	Limiter resilience.LimiterConfig
	// RateLimit tunes per-client token buckets; RPS <= 0 disables rate
	// limiting entirely.
	RateLimit resilience.RateLimiterConfig
	// Breaker tunes the per-endpoint circuit breakers; the zero value
	// selects the package defaults.
	Breaker resilience.BreakerConfig
	// Jobs tunes the async job subsystem; the zero value selects the
	// package defaults.
	Jobs resilience.JobsConfig
	// Fault, when non-nil, wraps the router with a fault-injection
	// middleware (internal/fault). It is mounted inside the obs panic
	// recovery so injected panics exercise the real recovery path.
	Fault func(http.Handler) http.Handler
}

// service carries the per-instance state shared by all handlers.
type service struct {
	*httpapi.API
	fault func(http.Handler) http.Handler
	jobs  *resilience.Jobs

	// policyHook, when non-nil, is consulted before the policy registry;
	// tests use it to inject misbehaving (e.g. panicking) policies.
	policyHook func(name string) sim.Policy
}

func newService(cfg Config) *service {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	api := httpapi.New(httpapi.Config{
		Logger:       cfg.Logger,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Limiter:      cfg.Limiter,
		RateLimit:    cfg.RateLimit,
		Breaker:      cfg.Breaker,
	}, reg)
	return &service{API: api, fault: cfg.Fault, jobs: resilience.NewJobs(cfg.Jobs, reg)}
}

// Service is the HTTP service plus the background state (job workers) that
// outlives individual requests. Close it on shutdown.
type Service struct {
	svc *service
	h   http.Handler
}

// NewService builds the service for the given Config.
func NewService(cfg Config) *Service {
	s := newService(cfg)
	return &Service{svc: s, h: s.handler()}
}

// Handler returns the root http.Handler.
func (sv *Service) Handler() http.Handler { return sv.h }

// Close stops the job workers, cancelling any running job. Safe to call
// more than once.
func (sv *Service) Close() { sv.svc.jobs.Close() }

// New returns the service's http.Handler with default configuration.
func New() http.Handler {
	return NewWithConfig(Config{})
}

// NewWithConfig returns the service's http.Handler for the given Config.
// Callers that use the async job API should prefer NewService so they can
// Close the worker pool on shutdown.
func NewWithConfig(cfg Config) http.Handler {
	return NewService(cfg).Handler()
}

func (s *service) handler() http.Handler {
	// The expensive synchronous routes get the full admission stack, each
	// with its own circuit breaker so a broken experiment cannot open the
	// simulate circuit.
	mux := s.Mux()
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("POST /v1/simulate", s.Protect("/v1/simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/mrc", s.Protect("/v1/mrc", s.handleMRC))
	mux.HandleFunc("POST /v1/experiments/{id}", s.Protect("/v1/experiments/{id}", s.handleExperiment))
	mux.HandleFunc("POST /v1/fit", s.handleFit)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleJobResume)
	var inner http.Handler = mux
	if s.fault != nil {
		// Inside obs.Middleware's panic recovery, outside the per-route
		// admission stack: an injected panic must exercise the real
		// recovery path, not count as an endpoint failure. Only /v1/
		// routes are faulted — /healthz and /metrics must stay reliable
		// or a chaos drill blinds the very probes watching it.
		faulted, clean := s.fault(inner), inner
		inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				faulted.ServeHTTP(w, r)
				return
			}
			clean.ServeHTTP(w, r)
		})
	}
	return s.Wrap(inner, routeLabel)
}

// routeLabel maps a request to a bounded-cardinality metrics label: the
// mux patterns with the experiment/job id collapsed, everything else
// "other".
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz", "/metrics", "/v1/policies", "/v1/simulate", "/v1/mrc", "/v1/fit", "/v1/jobs":
		return p
	}
	if strings.HasPrefix(p, "/v1/experiments/") {
		return "/v1/experiments/{id}"
	}
	if strings.HasPrefix(p, "/v1/jobs/") {
		switch {
		case strings.HasSuffix(p, "/result"):
			return "/v1/jobs/{id}/result"
		case strings.HasSuffix(p, "/resume"):
			return "/v1/jobs/{id}/resume"
		default:
			return "/v1/jobs/{id}"
		}
	}
	return "other"
}

// FitRequest calibrates a convex SLA curve from (misses, penalty) samples.
type FitRequest struct {
	// X are miss counts, Y the observed penalties.
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// Iters bounds the fit iterations (default 2000).
	Iters int `json:"iters"`
}

// FitResponse returns the fitted piecewise-linear curve.
type FitResponse struct {
	// Breakpoints and Slopes define the fitted costfn.PiecewiseLinear.
	Breakpoints []float64 `json:"breakpoints"`
	Slopes      []float64 `json:"slopes"`
	// Alpha is the curvature constant of the fit (the paper's competitive
	// exponent).
	Alpha float64 `json:"alpha"`
}

func (s *service) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	if !s.decode(w, r, &req) {
		return
	}
	f, err := costfn.FitConvex(req.X, req.Y, req.Iters)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	s.WriteJSON(w, r, http.StatusOK, FitResponse{
		Breakpoints: f.X,
		Slopes:      f.S,
		Alpha:       f.Alpha(),
	})
}

// TraceJSON is the wire form of a request sequence: rows of
// [tenant, page]. It is the runspec inline-trace shape, so requests decode
// straight into a Scenario.
type TraceJSON = [][2]int64

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	// Trace is the request sequence.
	Trace TraceJSON `json:"trace"`
	// K is the cache size.
	K int `json:"k"`
	// Policies are policy names; "alg" is the paper's algorithm.
	Policies []string `json:"policies"`
	// Costs are per-tenant costfn.Parse specs; missing tenants default to
	// linear:1.
	Costs []string `json:"costs"`
	// Seed seeds randomized policies.
	Seed int64 `json:"seed"`
	// DiscreteDeriv and CountMisses tune the algorithm (Section 2.5 /
	// accounting modes).
	DiscreteDeriv bool `json:"discrete_deriv"`
	CountMisses   bool `json:"count_misses"`
	// Shards > 1 replays each policy via deterministic sharded replay
	// (see sim.RunSharded); runspec.Validate enforces its restrictions.
	Shards int `json:"shards"`
}

// PolicyResult is one row of the simulate response.
type PolicyResult struct {
	Policy    string  `json:"policy"`
	Hits      int64   `json:"hits"`
	Misses    []int64 `json:"misses"`
	Evictions []int64 `json:"evictions"`
	TotalCost float64 `json:"total_cost"`
}

// SimulateResponse is the body of the simulate reply.
type SimulateResponse struct {
	Requests int            `json:"requests"`
	Tenants  int            `json:"tenants"`
	K        int            `json:"k"`
	Results  []PolicyResult `json:"results"`
}

// scenario converts the wire request into the shared run spec. Defaults
// (the canonical policy pair, cost fill) live in runspec.Validate, not
// here, so the CLIs and the HTTP API cannot drift apart. The algorithm
// options ride on the algorithm rows only.
func (req SimulateRequest) scenario() *runspec.Scenario {
	sc := &runspec.Scenario{
		Trace:  runspec.TraceSpec{Inline: req.Trace},
		K:      req.K,
		Costs:  req.Costs,
		Seed:   req.Seed,
		Shards: req.Shards,
	}
	for _, name := range req.Policies {
		ps := runspec.PolicySpec{Name: name}
		if name == "alg" || name == "alg-ref" {
			ps.DiscreteDeriv = req.DiscreteDeriv
			ps.CountMisses = req.CountMisses
		}
		sc.Policies = append(sc.Policies, ps)
	}
	return sc
}

func (s *service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	sc := req.scenario()
	sc.PolicyHook = s.policyHook
	stepsTotal := s.Reg.Counter("sim_steps_total")
	sc.Progress = func(delta int) { stepsTotal.Add(int64(delta)) }
	out, err := sc.Execute(r.Context())
	if err != nil {
		// Execute fails before any run only: spec mistakes and unbuildable
		// traces are the caller's.
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := SimulateResponse{Requests: out.Trace.Len(), Tenants: out.Trace.NumTenants(), K: req.K}
	for i := range out.Rows {
		row := &out.Rows[i]
		if row.Err != nil {
			s.simError(w, r, row.Policy, row.Err)
			return
		}
		s.Reg.Counter("sim_runs_total").Inc()
		s.Reg.Counter("sim_evictions_total").Add(row.Result.TotalEvictions())
		if el := row.Duration.Seconds(); el > 0 {
			s.Reg.Histogram("sim_steps_per_second", stepsRateBuckets).
				Observe(float64(row.Result.Steps) / el)
		}
		resp.Results = append(resp.Results, PolicyResult{
			Policy:    row.Policy,
			Hits:      row.Result.Hits,
			Misses:    row.Result.Misses,
			Evictions: row.Result.Evictions,
			TotalCost: row.Cost,
		})
	}
	s.WriteJSON(w, r, http.StatusOK, resp)
}

// simError maps a failed simulation row onto the wire: client-abandoned
// runs answer 499, deadline overruns 503, and a panicking policy re-raises
// into the recovery middleware so panic accounting and logging stay in one
// place. Anything else is a plain 500.
func (s *service) simError(w http.ResponseWriter, r *http.Request, policy string, err error) {
	var pe *sim.PanicError
	switch {
	case errors.As(err, &pe):
		panic(pe.Value)
	case errors.Is(err, context.Canceled):
		// Client disconnected mid-replay; nothing reads the reply, but
		// record why the request ended.
		s.Reg.Counter("sim_cancelled_total").Inc()
		obs.LoggerFrom(r.Context(), s.Log).Warn("simulation cancelled",
			"policy", policy, "err", err)
		s.httpError(w, r, StatusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.Reg.Counter("sim_deadline_total").Inc()
		s.WriteError(w, r, http.StatusServiceUnavailable,
			resilience.ReasonDeadline, time.Second, err)
	default:
		s.httpError(w, r, http.StatusInternalServerError, err)
	}
}

// stepsRateBuckets spans the observed engine range: ~1e4 req/s (tiny traces
// dominated by setup) to a few 1e7 req/s (dense hot path).
var stepsRateBuckets = []float64{1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8}

// MRCRequest is the body of POST /v1/mrc.
type MRCRequest struct {
	Trace   TraceJSON `json:"trace"`
	MaxSize int       `json:"max_size"`
	// K, when positive, also returns the optimal static partition.
	K     int      `json:"k"`
	Costs []string `json:"costs"`
}

// MRCResponse is the reply of POST /v1/mrc.
type MRCResponse struct {
	// MissRatio[c-1] is the combined LRU miss ratio at size c.
	MissRatio []float64 `json:"miss_ratio"`
	// PerTenant[i][c-1] is tenant i's isolated curve.
	PerTenant [][]float64 `json:"per_tenant"`
	// Quotas and PredictedCost are set when K > 0.
	Quotas        []int   `json:"quotas,omitempty"`
	PredictedCost float64 `json:"predicted_cost,omitempty"`
}

func (s *service) handleMRC(w http.ResponseWriter, r *http.Request) {
	var req MRCRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr, err := (&runspec.Scenario{Trace: runspec.TraceSpec{Inline: req.Trace}}).BuildTrace()
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.MaxSize <= 0 {
		req.MaxSize = 64
	}
	if req.MaxSize > MaxMRCSize {
		s.httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("max_size %d exceeds limit %d", req.MaxSize, MaxMRCSize))
		return
	}
	combined, err := analysis.Mattson(tr, req.MaxSize)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	perTenant, err := analysis.PerTenant(tr, req.MaxSize)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp := MRCResponse{MissRatio: combined.MissRatioCurve(req.MaxSize)}
	for _, c := range perTenant {
		if c.Requests == 0 {
			resp.PerTenant = append(resp.PerTenant, make([]float64, req.MaxSize))
			continue
		}
		resp.PerTenant = append(resp.PerTenant, c.MissRatioCurve(req.MaxSize))
	}
	if req.K > 0 {
		costs, err := runspec.Costs(req.Costs, tr.NumTenants())
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		quotas, cost, err := analysis.OptimalStaticPartition(perTenant, costs, req.K)
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		resp.Quotas = quotas
		resp.PredictedCost = cost
	}
	s.WriteJSON(w, r, http.StatusOK, resp)
}

// ExperimentResponse is the reply of POST /v1/experiments/{id}.
type ExperimentResponse struct {
	ID     string     `json:"id"`
	Claim  string     `json:"claim"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func (s *service) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, e := range experiments.All() {
		if !strings.EqualFold(e.ID, id) {
			continue
		}
		tb, err := e.Run(true)
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		s.WriteJSON(w, r, http.StatusOK, ExperimentResponse{
			ID: e.ID, Claim: e.Claim, Header: tb.Header, Rows: tb.Rows(),
		})
		return
	}
	s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
}

func (s *service) handlePolicies(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, r, http.StatusOK, map[string][]string{
		"policies": runspec.PolicyNames(),
	})
}

// decode parses the size-capped JSON body into dst, rejecting unknown
// fields and trailing garbage (`{}{"x":1}` must not parse as `{}`).
func (s *service) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := s.Body(w, r)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	if dec.More() {
		s.httpError(w, r, http.StatusBadRequest, errors.New("decode request: trailing data after JSON body"))
		return false
	}
	return true
}

// httpError is the legacy helper for non-shed failures; the reason is
// derived from the status so every error response carries one.
func (s *service) httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.WriteError(w, r, status, reasonForStatus(status), 0, err)
}

func reasonForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case StatusClientClosedRequest:
		return "client_closed_request"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		if status >= 500 {
			return "internal"
		}
		return ""
	}
}
