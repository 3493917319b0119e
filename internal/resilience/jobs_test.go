// Black-box tests of the job subsystem: every job is checked against a plain
// sim.Run of the same policy.
package resilience_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/obs"
	"convexcache/internal/policy"
	"convexcache/internal/resilience"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// testTrace builds a deterministic multi-tenant trace long enough to cross
// several cancellation-check boundaries.
func testTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := trace.NewBuilder()
	for i := 0; i < n; i++ {
		tn := trace.Tenant(rng.Intn(3))
		// Per-tenant page universe with a skewed-ish reuse pattern.
		p := trace.PageID(int64(tn)*1000 + int64(rng.Intn(200)))
		b.Add(tn, p)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testOptions() core.Options {
	return core.Options{Costs: []costfn.Func{
		costfn.Linear{W: 1}, costfn.Linear{W: 2}, costfn.Linear{W: 0.5},
	}}
}

// newPolicy returns a factory for the policy a job named name runs: the
// paper's algorithm ("alg" on core.Fast, "alg-ref" on core.Discrete) or a
// registry baseline.
func newPolicy(name string, k int) func() sim.Policy {
	opt := testOptions()
	switch name {
	case "alg":
		return func() sim.Policy { return core.NewFast(opt) }
	case "alg-ref":
		return func() sim.Policy { return core.NewDiscrete(opt) }
	}
	spec := policy.Spec{K: k, Tenants: len(opt.Costs), Costs: opt.Costs, Seed: 7}
	return func() sim.Policy { return policy.MustNew(name, spec) }
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// newJobs returns a job subsystem that the test closes when it ends, after
// it opens the test's gates.
func newJobs(t *testing.T, cfg resilience.JobsConfig, reg *obs.Registry) *resilience.Jobs {
	js := resilience.NewJobs(cfg, reg)
	t.Cleanup(js.Close)
	return js
}

func waitState(t *testing.T, js *resilience.Jobs, id, state string) {
	t.Helper()
	waitFor(t, func() bool {
		s, err := js.Status(id)
		return err == nil && s.State == state
	})
}

// gate holds a replay at its first call at or after step at: it closes
// reached, then waits for open. The test opens it when it ends, so that a
// failed test never leaves a worker held.
type gate struct {
	at      int
	fired   bool
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate(t *testing.T, at int) *gate {
	g := &gate{at: at, reached: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) wait(step int) {
	if step >= g.at && !g.fired {
		g.fired = true
		close(g.reached)
		<-g.release
	}
}

// await fails the test unless the replay reaches g within a few seconds.
func (g *gate) await(t *testing.T) {
	t.Helper()
	select {
	case <-g.reached:
	case <-time.After(5 * time.Second):
		t.Fatalf("the replay never reached step %d", g.at)
	}
}

// gatedPolicy holds a replay in OnInsert, at the first miss from the gate's
// step on. Prepare forwards to an offline policy.
type gatedPolicy struct {
	sim.Policy
	g *gate
}

func (p gatedPolicy) OnInsert(step int, r trace.Request) {
	p.g.wait(step)
	p.Policy.OnInsert(step, r)
}

func (p gatedPolicy) Prepare(ix *trace.Indexed) {
	if op, ok := p.Policy.(sim.OfflinePolicy); ok {
		op.Prepare(ix)
	}
}

// gatedFast embeds *core.Fast, so it is still a sim.DensePolicy, and holds
// the replay in StepBatch: reaching its gate shows that the job runs on the
// batched dense engine.
type gatedFast struct {
	*core.Fast
	g *gate
}

func (p gatedFast) StepBatch(base int, pages []int32, bc *sim.BatchCounters, warm bool) error {
	p.g.wait(base)
	return p.Fast.StepBatch(base, pages, bc, warm)
}

func gated(p sim.Policy, g *gate) sim.Policy {
	if f, ok := p.(*core.Fast); ok {
		return gatedFast{f, g}
	}
	return gatedPolicy{p, g}
}

// interrupt submits a job whose first run is held at step at, cancels it
// there, mid-trace, and resumes it. The resumed run is held at step at too;
// interrupt returns the job id and the resumed run's gate, still holding.
func interrupt(t *testing.T, js *resilience.Jobs, name string, tr *trace.Trace, k, at int) (string, *gate) {
	t.Helper()
	mk := newPolicy(name, k)
	first, second := newGate(t, at), newGate(t, at)
	gates := make(chan *gate, 2)
	gates <- first
	gates <- second
	st, err := js.Submit(resilience.JobSpec{
		Label: name, Trace: tr, K: k,
		NewPolicy: func() sim.Policy { return gated(mk(), <-gates) },
	})
	if err != nil {
		t.Fatal(err)
	}
	first.await(t)
	if _, err := js.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	first.open()
	waitState(t, js, st.ID, resilience.JobCancelled)
	if _, err := js.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	second.await(t)
	return st.ID, second
}

// TestJobsResumeMatchesSimRun cancels a job of every policy while it runs,
// mid-trace, resumes it, and requires the result of an uninterrupted
// sim.Run: a resume replays from step 0, and every policy is deterministic.
func TestJobsResumeMatchesSimRun(t *testing.T) {
	// The cancel lands at the first check after step 4,000, at 8,192
	// (sim.CheckEverySteps), and the trace runs past it.
	const n, k, at = 12_000, 64, 4_000
	tr := testTrace(t, n)
	js := newJobs(t, resilience.JobsConfig{Workers: 1}, nil)
	for _, name := range append([]string{"alg", "alg-ref"}, policy.Names()...) {
		ref, err := sim.Run(tr, newPolicy(name, k)(), sim.ConfigAt(k))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		id, g := interrupt(t, js, name, tr, k, at)
		g.open()
		waitState(t, js, id, resilience.JobDone)
		got, _, ok, err := js.Result(id)
		if err != nil || !ok {
			t.Fatalf("%s: Result: ok=%v err=%v", name, ok, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: resumed job diverged from sim.Run:\nref %+v\ngot %+v", name, ref, got)
		}
	}
}

// TestJobsResumedStepRestarts polls a resumed job's step, which must count
// the resumed run alone and so never pass the trace length. Each run is held
// at step 30,000, past three progress reports, and the first is cancelled at
// the check at 32,768.
func TestJobsResumedStepRestarts(t *testing.T) {
	const n, k, at = 40_000, 64, 30_000
	tr := testTrace(t, n)
	js := newJobs(t, resilience.JobsConfig{Workers: 1}, nil)
	for _, name := range []string{"alg", "lru"} {
		id, g := interrupt(t, js, name, tr, k, at)
		check := func() bool {
			s, err := js.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if s.Step > s.TotalSteps {
				t.Fatalf("%s: resumed job at step %d of %d", name, s.Step, s.TotalSteps)
			}
			return s.State == resilience.JobDone
		}
		check() // held mid-trace, past the first run's last progress report
		g.open()
		waitFor(t, check)
	}
}

// TestJobsQueueNeverBlocks holds the one worker and, on a store of two,
// either cancels and resumes a queued job ten times, or cancels it and then
// submits and cancels ten times. A job has at most one queue entry, so
// neither blocks: Resume adds no entry while one is queued, and Submit sheds
// job_store_full rather than evict a job whose entry is still queued.
func TestJobsQueueNeverBlocks(t *testing.T) {
	tr := testTrace(t, 64)
	lru := newPolicy("lru", 8)
	spec := resilience.JobSpec{Label: "lru", Trace: tr, K: 8, NewPolicy: lru}
	for _, shape := range []struct {
		name   string
		cycles func(js *resilience.Jobs, queued string) error
	}{
		{"cancel-resume", func(js *resilience.Jobs, queued string) error {
			for i := 0; i < 10; i++ {
				if _, err := js.Cancel(queued); err != nil {
					return err
				}
				if _, err := js.Resume(queued); err != nil {
					return err
				}
			}
			return nil
		}},
		{"submit-cancel", func(js *resilience.Jobs, queued string) error {
			if _, err := js.Cancel(queued); err != nil {
				return err
			}
			for i := 0; i < 10; i++ {
				st, err := js.Submit(spec)
				var shed *resilience.Shed
				if errors.As(err, &shed) && shed.Reason == resilience.ReasonJobStoreFull && shed.RetryAfter > 0 {
					continue
				}
				if err != nil {
					return err
				}
				if _, err := js.Cancel(st.ID); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			js := newJobs(t, resilience.JobsConfig{Workers: 1, MaxJobs: 2}, nil)
			busy := newGate(t, 0)
			if _, err := js.Submit(resilience.JobSpec{
				Label: "busy", Trace: tr, K: 8,
				NewPolicy: func() sim.Policy { return gated(lru(), busy) },
			}); err != nil {
				t.Fatal(err)
			}
			busy.await(t)
			queued, err := js.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- shape.cycles(js, queued.ID) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the cycles blocked with the worker busy")
			}
			busy.open()
			// Once the worker drains the queue, every job finishes and its
			// slot becomes evictable again.
			waitFor(t, func() bool {
				_, err := js.Submit(spec)
				return err == nil
			})
		})
	}
}

// TestJobsDoneJobDropsTrace shows that the store keeps a done job's result
// but not its trace, nor the dense view the replay cached on it.
func TestJobsDoneJobDropsTrace(t *testing.T) {
	js := newJobs(t, resilience.JobsConfig{Workers: 1}, nil)
	freed := make(chan struct{})
	id := func() string {
		tr := testTrace(t, 20_000)
		runtime.SetFinalizer(tr, func(*trace.Trace) { close(freed) })
		st, err := js.Submit(resilience.JobSpec{Label: "alg", Trace: tr, K: 64, NewPolicy: newPolicy("alg", 64)})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}()
	waitState(t, js, id, resilience.JobDone)
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-freed:
			if s, err := js.Status(id); err != nil || s.TotalSteps != 20_000 {
				t.Fatalf("status after the trace was freed: %+v, %v", s, err)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 200 {
			t.Fatal("the store still holds a done job's trace")
		}
	}
}

func TestJobsLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	js := newJobs(t, resilience.JobsConfig{Workers: 2, MaxJobs: 8}, reg)
	tr := testTrace(t, 20_000)
	const k = 64

	ref, err := sim.Run(tr, core.NewFast(testOptions()), sim.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}

	st, err := js.Submit(resilience.JobSpec{Label: "alg", Trace: tr, K: k, NewPolicy: newPolicy("alg", k)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, js, st.ID, resilience.JobDone)
	res, _, ok, err := js.Result(st.ID)
	if err != nil || !ok {
		t.Fatalf("Result: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatalf("job result diverged:\nref %+v\ngot %+v", ref, res)
	}
	if got := reg.Counter(`resilience_jobs_finished_total{state="done"}`).Value(); got != 1 {
		t.Errorf("finished counter = %d, want 1", got)
	}
}

func TestJobsCancelQueuedAndResume(t *testing.T) {
	js := newJobs(t, resilience.JobsConfig{Workers: 1, MaxJobs: 8}, nil)
	tr := testTrace(t, 64)

	busy := newGate(t, 0)
	blocker, err := js.Submit(resilience.JobSpec{
		Label: "busy", Trace: tr, K: 8,
		NewPolicy: func() sim.Policy { return gated(newPolicy("lru", 8)(), busy) },
	})
	if err != nil {
		t.Fatal(err)
	}
	busy.await(t) // the single worker is now busy

	queued, err := js.Submit(resilience.JobSpec{Label: "alg", Trace: tr, K: 8, NewPolicy: newPolicy("alg", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := js.Cancel(queued.ID); err != nil || st.State != resilience.JobCancelled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	if _, err := js.Resume(queued.ID); err != nil {
		t.Fatalf("resume: %v", err)
	}
	busy.open()
	waitState(t, js, queued.ID, resilience.JobDone)
	s, _ := js.Status(queued.ID)
	if s.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", s.Resumes)
	}
	waitState(t, js, blocker.ID, resilience.JobDone)
}

// panicPolicy crashes mid-replay to prove job isolation.
type panicPolicy struct{}

func (panicPolicy) Name() string                                  { return "panic" }
func (panicPolicy) OnHit(step int, r trace.Request)               {}
func (panicPolicy) OnInsert(step int, r trace.Request)            { panic("injected job panic") }
func (panicPolicy) Victim(step int, r trace.Request) trace.PageID { return -1 }
func (panicPolicy) OnEvict(step int, p trace.PageID)              {}
func (panicPolicy) Reset()                                        {}

func TestJobsPanicBecomesFailedJob(t *testing.T) {
	reg := obs.NewRegistry()
	js := newJobs(t, resilience.JobsConfig{Workers: 1, MaxJobs: 4}, reg)
	tr := testTrace(t, 64)

	st, err := js.Submit(resilience.JobSpec{
		Label: "panic", Trace: tr, K: 8,
		NewPolicy: func() sim.Policy { return panicPolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, js, st.ID, resilience.JobFailed)
	s, _ := js.Status(st.ID)
	if !strings.Contains(s.Error, "job crashed") {
		t.Errorf("error = %q, want crash report", s.Error)
	}
	if got := reg.Counter("resilience_job_panics_total").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}

	// The worker must survive the crash and serve the next job.
	ok, err := js.Submit(resilience.JobSpec{Label: "alg", Trace: tr, K: 8, NewPolicy: newPolicy("alg", 8)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, js, ok.ID, resilience.JobDone)
}

func TestJobsStoreBoundSheds(t *testing.T) {
	js := newJobs(t, resilience.JobsConfig{Workers: 1, MaxJobs: 2}, nil)
	tr := testTrace(t, 64)

	busy := newGate(t, 0)
	spec := resilience.JobSpec{Label: "lru", Trace: tr, K: 8, NewPolicy: newPolicy("lru", 8)}
	if _, err := js.Submit(resilience.JobSpec{
		Label: "busy", Trace: tr, K: 8,
		NewPolicy: func() sim.Policy { return gated(newPolicy("lru", 8)(), busy) },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := js.Submit(spec); err != nil {
		t.Fatal(err)
	}
	_, err := js.Submit(spec)
	var shed *resilience.Shed
	if !errors.As(err, &shed) || shed.Reason != resilience.ReasonJobStoreFull {
		t.Fatalf("err = %v, want job_store_full shed", err)
	}
	busy.open()
	// Once jobs finish, their slots become evictable again.
	waitFor(t, func() bool {
		_, err := js.Submit(spec)
		return err == nil
	})
}
