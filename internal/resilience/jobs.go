package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"convexcache/internal/costfn"
	"convexcache/internal/obs"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Job states. queued -> running -> {done, failed, cancelled};
// failed/cancelled -> queued again via Resume.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobSpec describes one replay to run asynchronously.
type JobSpec struct {
	// Label is the policy name for the result.
	Label string
	// Trace is the request sequence.
	Trace *trace.Trace
	// K is the cache size.
	K int
	// NewPolicy returns a fresh policy instance; every run of the job,
	// resumed ones included, takes its own.
	NewPolicy func() sim.Policy
	// Costs are kept with the job so the result can be priced.
	Costs []costfn.Func
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Policy is the spec's Label (the requested policy name).
	Policy string `json:"policy"`
	// Step is the progress of the current run, which starts at 0 on every
	// resume; TotalSteps is the trace length.
	Step       int `json:"step"`
	TotalSteps int `json:"total_steps"`
	// Resumes counts how many times the job was queued again.
	Resumes int `json:"resumes,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
}

// job is the internal record. A done job drops spec.Trace, so total keeps
// the trace length.
type job struct {
	id    string
	spec  JobSpec
	total int

	mu    sync.Mutex
	state string
	step  int
	// inQueue marks the job's one entry in Jobs.queue, from send to dequeue.
	inQueue bool
	err     error
	result  *sim.Result
	resumes int
	cancel  context.CancelFunc
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Policy:     j.spec.Label,
		Step:       j.step,
		TotalSteps: j.total,
		Resumes:    j.resumes,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// JobsConfig tunes the job subsystem; the zero value selects the defaults.
type JobsConfig struct {
	// Workers is the worker-pool size; <= 0 selects 2.
	Workers int
	// MaxJobs bounds the job store (records, running or finished); <= 0
	// selects 256. When full, the oldest finished job with no queue entry
	// is evicted; with no evictable record, Submit sheds.
	MaxJobs int
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	return c
}

// Jobs runs replays asynchronously on a bounded worker pool so long work
// never holds an HTTP connection, and crashes (worker panics) degrade to a
// failed job instead of a dead process.
type Jobs struct {
	cfg JobsConfig
	reg *obs.Registry

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // insertion order, for bounded-store eviction
	seq   atomic.Int64

	queue     chan *job
	startOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// ErrUnknownJob reports a job id with no record (possibly evicted).
var ErrUnknownJob = errors.New("resilience: unknown job id")

// NewJobs builds the subsystem; reg may be nil. Workers start lazily on the
// first Submit, so an idle instance costs no goroutines.
func NewJobs(cfg JobsConfig, reg *obs.Registry) *Jobs {
	cfg = cfg.withDefaults()
	// A stored job has at most one queue entry and the store holds at most
	// MaxJobs, so a buffer of MaxJobs never blocks a send.
	return &Jobs{
		cfg:    cfg,
		reg:    reg,
		jobs:   make(map[string]*job),
		queue:  make(chan *job, cfg.MaxJobs),
		closed: make(chan struct{}),
	}
}

// Close cancels running jobs and stops the workers. Safe to call on an
// instance that never ran anything.
func (js *Jobs) Close() {
	js.startOnce.Do(func() {}) // ensure workers can never start after Close
	select {
	case <-js.closed:
		return
	default:
	}
	close(js.closed)
	js.mu.Lock()
	for _, j := range js.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	js.mu.Unlock()
	js.wg.Wait()
}

func (js *Jobs) start() {
	js.startOnce.Do(func() {
		select {
		case <-js.closed:
			return
		default:
		}
		for w := 0; w < js.cfg.Workers; w++ {
			js.wg.Add(1)
			go func() {
				defer js.wg.Done()
				for {
					select {
					case <-js.closed:
						return
					case j := <-js.queue:
						js.run(j)
					}
				}
			}()
		}
	})
}

// Submit stores and enqueues a new job, returning its status. The store is
// bounded: if no finished job can be evicted to make room, Submit sheds
// with ReasonJobStoreFull.
func (js *Jobs) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Trace == nil || spec.K <= 0 || spec.NewPolicy == nil {
		return JobStatus{}, errors.New("resilience: job spec needs a trace, a positive K, and a policy")
	}
	select {
	case <-js.closed:
		return JobStatus{}, errors.New("resilience: job subsystem closed")
	default:
	}
	j := &job{
		id:      fmt.Sprintf("job-%06d", js.seq.Add(1)),
		spec:    spec,
		total:   spec.Trace.Len(),
		state:   JobQueued,
		inQueue: true,
	}
	js.mu.Lock()
	if len(js.jobs) >= js.cfg.MaxJobs && !js.evictLocked() {
		js.mu.Unlock()
		countShed(js.reg, ReasonJobStoreFull)
		return JobStatus{}, &Shed{
			Reason:     ReasonJobStoreFull,
			RetryAfter: 5 * time.Second,
			Detail:     fmt.Sprintf("all %d job slots hold unfinished jobs", js.cfg.MaxJobs),
		}
	}
	js.jobs[j.id] = j
	js.order = append(js.order, j.id)
	js.mu.Unlock()
	js.start()
	js.count("resilience_jobs_submitted_total")
	js.queue <- j // buffer == MaxJobs, so never blocks while the store admits
	return j.status(), nil
}

// evictLocked drops the oldest finished job that has no queue entry, so
// that no entry outlives its record; reports whether a slot freed.
func (js *Jobs) evictLocked() bool {
	for i, id := range js.order {
		j := js.jobs[id]
		j.mu.Lock()
		finished := !j.inQueue && (j.state == JobDone || j.state == JobFailed || j.state == JobCancelled)
		j.mu.Unlock()
		if finished {
			delete(js.jobs, id)
			js.order = append(js.order[:i], js.order[i+1:]...)
			return true
		}
	}
	return false
}

// Status returns the job's current status.
func (js *Jobs) Status(id string) (JobStatus, error) {
	j, err := js.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// Result returns the finished job's Result and costs. The bool reports
// whether the job is done; a false return with nil error means "not yet".
func (js *Jobs) Result(id string) (sim.Result, []costfn.Func, bool, error) {
	j, err := js.get(id)
	if err != nil {
		return sim.Result{}, nil, false, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.result == nil {
		return sim.Result{}, nil, false, nil
	}
	return *j.result, j.spec.Costs, true, nil
}

// Cancel stops a queued or running job; Resume can queue it again.
// Cancelling a finished job is an error.
func (js *Jobs) Cancel(id string) (JobStatus, error) {
	j, err := js.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCancelled // its entry stays queued; run skips it
	case JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
		// The worker moves it to cancelled when the replay returns.
	case JobCancelled:
		// Idempotent.
	default:
		st := j.state
		j.mu.Unlock()
		return JobStatus{}, fmt.Errorf("resilience: cannot cancel %s job %s", st, id)
	}
	j.mu.Unlock()
	return j.status(), nil
}

// Resume queues a cancelled or failed job again. It replays from step 0: the
// policies are deterministic, so the result is the uninterrupted run's.
func (js *Jobs) Resume(id string) (JobStatus, error) {
	select {
	case <-js.closed:
		return JobStatus{}, errors.New("resilience: job subsystem closed")
	default:
	}
	// js.mu, which eviction holds too, keeps the job stored until it has
	// its queue entry.
	js.mu.Lock()
	j, ok := js.jobs[id]
	if !ok {
		js.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	if j.state != JobCancelled && j.state != JobFailed {
		st := j.state
		j.mu.Unlock()
		js.mu.Unlock()
		return JobStatus{}, fmt.Errorf("resilience: cannot resume %s job %s", st, id)
	}
	j.state = JobQueued
	j.err = nil
	j.step = 0
	j.resumes++
	send := !j.inQueue // a job cancelled while queued keeps its entry
	j.inQueue = true
	j.mu.Unlock()
	js.mu.Unlock()
	js.start()
	js.count("resilience_jobs_resumed_total")
	if send {
		js.queue <- j
	}
	return j.status(), nil
}

func (js *Jobs) get(id string) (*job, error) {
	js.mu.Lock()
	j, ok := js.jobs[id]
	js.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// run executes one dequeued job on sim.RunContext, so the paper's algorithm
// takes the batched dense engine. A panicking replay is recovered into a
// failed job — a crashed job must never take the worker, let alone the
// process, down with it.
func (js *Jobs) run(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	j.inQueue = false
	if j.state != JobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.cancel = cancel
	tr := j.spec.Trace
	j.mu.Unlock()
	js.gauge("resilience_jobs_running", 1)
	defer js.gauge("resilience_jobs_running", -1)

	defer func() {
		if p := recover(); p != nil {
			js.count("resilience_job_panics_total")
			js.finish(j, JobFailed, nil, fmt.Errorf("job crashed: %v", p))
		}
	}()

	res, err := sim.RunContext(ctx, tr, j.spec.NewPolicy(),
		sim.ConfigAt(j.spec.K).WithProgress(func(delta int) {
			j.mu.Lock()
			j.step += delta
			j.mu.Unlock()
		}))
	switch {
	case err == nil:
		js.finish(j, JobDone, &res, nil)
	case errors.Is(err, context.Canceled):
		js.finish(j, JobCancelled, nil, nil)
	default:
		js.finish(j, JobFailed, nil, err)
	}
}

func (js *Jobs) finish(j *job, state string, res *sim.Result, err error) {
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = err
	j.cancel = nil
	if res != nil {
		j.step = res.Steps
		j.spec.Trace = nil // a done job is never resumed, so never replayed
	}
	j.mu.Unlock()
	js.count(fmt.Sprintf("resilience_jobs_finished_total{state=%q}", state))
}

func (js *Jobs) count(name string) {
	if js.reg != nil {
		js.reg.Counter(name).Inc()
	}
}

func (js *Jobs) gauge(name string, delta int64) {
	if js.reg != nil {
		js.reg.Gauge(name).Add(delta)
	}
}
