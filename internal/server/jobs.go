// Async job API: long replays run on the resilience worker pool instead of
// holding an HTTP connection. A job runs through sim.RunContext, so the
// paper's algorithm ("alg") takes the batched dense engine; a cancelled or
// crashed job resumes by replaying from step 0.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"convexcache/internal/resilience"
	"convexcache/internal/runspec"
)

// JobRequest is the body of POST /v1/jobs: one trace, one policy.
type JobRequest struct {
	// Trace is the request sequence.
	Trace TraceJSON `json:"trace"`
	// K is the cache size.
	K int `json:"k"`
	// Policy is a single policy name; "alg" is the default.
	Policy string `json:"policy"`
	// Costs are per-tenant costfn.Parse specs.
	Costs []string `json:"costs"`
	// Seed seeds randomized policies.
	Seed int64 `json:"seed"`
	// DiscreteDeriv and CountMisses tune the algorithm.
	DiscreteDeriv bool `json:"discrete_deriv"`
	CountMisses   bool `json:"count_misses"`
}

// JobResultResponse is the body of GET /v1/jobs/{id}/result.
type JobResultResponse struct {
	Status resilience.JobStatus `json:"status"`
	Result PolicyResult         `json:"result"`
}

func (s *service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// Rate-limit before reading the body: an over-limit client must not
	// make the server read and decode up to MaxBody bytes.
	if !s.AllowRate(w, r) {
		return
	}
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	// One policy per job; the single-policy default stays here because it
	// differs from the scenario default pair.
	if req.Policy == "" {
		req.Policy = "alg"
	}
	sc := runspec.Scenario{
		Trace:      runspec.TraceSpec{Inline: req.Trace},
		Policies:   []runspec.PolicySpec{{Name: req.Policy, DiscreteDeriv: req.DiscreteDeriv, CountMisses: req.CountMisses}},
		K:          req.K,
		Costs:      req.Costs,
		Seed:       req.Seed,
		PolicyHook: s.policyHook,
	}
	if req.Policy != "alg" && req.Policy != "alg-ref" {
		sc.Policies[0].DiscreteDeriv = false
		sc.Policies[0].CountMisses = false
	}
	if err := sc.Validate(); err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	tr, err := sc.BuildTrace()
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	costs, err := sc.BuildCosts(tr.NumTenants(), tr.NumTenants())
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	// Resolve the policy now so a typo answers 400, not an async failure.
	compiled, err := sc.CompilePolicies(req.K, tr.NumTenants(), costs)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	st, err := s.jobs.Submit(resilience.JobSpec{
		Label: req.Policy, Trace: tr, K: req.K, NewPolicy: compiled[0].New, Costs: costs,
	})
	if err != nil {
		var sh *resilience.Shed
		if errors.As(err, &sh) {
			s.ShedError(w, r, err)
			return
		}
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	s.WriteJSON(w, r, http.StatusAccepted, st)
}

// jobID resolves {id} and converts ErrUnknownJob into a 404; every other
// error is the caller's state machine misuse (409).
func (s *service) jobCall(w http.ResponseWriter, r *http.Request, call func(id string) (resilience.JobStatus, error), status int) {
	st, err := call(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, resilience.ErrUnknownJob) {
			s.httpError(w, r, http.StatusNotFound, err)
			return
		}
		s.httpError(w, r, http.StatusConflict, err)
		return
	}
	s.WriteJSON(w, r, status, st)
}

func (s *service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.jobCall(w, r, s.jobs.Status, http.StatusOK)
}

func (s *service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.jobCall(w, r, s.jobs.Cancel, http.StatusOK)
}

func (s *service) handleJobResume(w http.ResponseWriter, r *http.Request) {
	s.jobCall(w, r, s.jobs.Resume, http.StatusAccepted)
}

func (s *service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, costs, done, err := s.jobs.Result(id)
	if err != nil {
		s.httpError(w, r, http.StatusNotFound, err)
		return
	}
	if !done {
		st, _ := s.jobs.Status(id)
		s.httpError(w, r, http.StatusConflict,
			fmt.Errorf("job %s is %s, not done", id, st.State))
		return
	}
	st, _ := s.jobs.Status(id)
	s.WriteJSON(w, r, http.StatusOK, JobResultResponse{
		Status: st,
		Result: PolicyResult{
			// The requested name, matching /v1/simulate's labels; the
			// engine's own Name() may differ (e.g. "alg-fast" for "alg").
			Policy:    st.Policy,
			Hits:      res.Hits,
			Misses:    res.Misses,
			Evictions: res.Evictions,
			TotalCost: res.Cost(costs),
		},
	})
}
