package check

import (
	"fmt"
	"reflect"
	"strings"

	"convexcache/internal/core"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// StepRecord is the observable outcome of one simulation step, the unit the
// differential oracles compare. Two implementations "agree" when their
// per-step records are identical over the whole trace.
type StepRecord struct {
	// Page is the requested page.
	Page trace.PageID
	// Miss is true when the page was fetched.
	Miss bool
	// Evicted is the evicted page, -1 when none.
	Evicted trace.PageID
}

// Divergence describes the first step at which two runs disagreed.
type Divergence struct {
	// Step is the 0-based request index of the first disagreement; -1 when
	// the disagreement is in the aggregate results only.
	Step int
	// A and B describe each side's behavior at Step.
	A, B string
	// Repro is the ddmin-minimized trace still exhibiting the divergence;
	// nil when minimization was not run.
	Repro *trace.Trace
}

func (d *Divergence) Error() string {
	msg := fmt.Sprintf("check: first divergence at step %d: A %s, B %s", d.Step, d.A, d.B)
	if d.Repro != nil {
		msg += fmt.Sprintf(" (minimized repro: %d requests)", d.Repro.Len())
	}
	return msg
}

// ReproString renders the minimized repro in the text trace format, ready to
// be committed under testdata/ as a regression input.
func (d *Divergence) ReproString() string {
	if d.Repro == nil {
		return ""
	}
	var b strings.Builder
	if err := trace.Write(&b, d.Repro); err != nil {
		return ""
	}
	return b.String()
}

// record runs p over tr and captures the per-step records.
func record(tr *trace.Trace, p sim.Policy, cfg sim.Config) ([]StepRecord, sim.Result, error) {
	recs := make([]StepRecord, 0, tr.Len())
	user := cfg.Observer
	cfg.Observer = func(ev sim.Event) {
		recs = append(recs, StepRecord{Page: ev.Req.Page, Miss: ev.Miss, Evicted: ev.Evicted})
		if user != nil {
			user(ev)
		}
	}
	res, err := sim.Run(tr, p, cfg)
	return recs, res, err
}

// firstDivergence compares two record streams and the aggregate results.
func firstDivergence(ra, rb []StepRecord, resA, resB sim.Result) *Divergence {
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		if ra[i] != rb[i] {
			return &Divergence{Step: i, A: describeRecord(ra[i]), B: describeRecord(rb[i])}
		}
	}
	if len(ra) != len(rb) {
		return &Divergence{Step: n, A: fmt.Sprintf("%d steps", len(ra)), B: fmt.Sprintf("%d steps", len(rb))}
	}
	if resA.Hits != resB.Hits ||
		!reflect.DeepEqual(resA.Misses, resB.Misses) ||
		!reflect.DeepEqual(resA.Evictions, resB.Evictions) ||
		resA.EffectiveSteps != resB.EffectiveSteps {
		return &Divergence{
			Step: -1,
			A:    fmt.Sprintf("hits=%d misses=%v evictions=%v", resA.Hits, resA.Misses, resA.Evictions),
			B:    fmt.Sprintf("hits=%d misses=%v evictions=%v", resB.Hits, resB.Misses, resB.Evictions),
		}
	}
	return nil
}

func describeRecord(r StepRecord) string {
	if !r.Miss {
		return fmt.Sprintf("hit page %d", r.Page)
	}
	if r.Evicted < 0 {
		return fmt.Sprintf("miss page %d, no eviction", r.Page)
	}
	return fmt.Sprintf("miss page %d, evict page %d", r.Page, r.Evicted)
}

// DiffPolicies replays the trace through two independently constructed
// policies under the same engine configuration and returns the first
// diverging step, or nil when the runs agree bit-for-bit. The factories are
// re-invoked during minimization, so they must return fresh instances.
func DiffPolicies(tr *trace.Trace, k int, mkA, mkB func() sim.Policy, engA, engB sim.Engine) (*Divergence, error) {
	return minimizeDivergence(tr, func(t *trace.Trace) (*Divergence, error) {
		return diffOnce(t, k, mkA, mkB, engA, engB)
	})
}

// minimizeDivergence runs once on tr and, on divergence, ddmin-minimizes the
// trace and re-derives the report on the minimized repro, so the report
// matches the trace a regression test would commit.
func minimizeDivergence(tr *trace.Trace, once func(*trace.Trace) (*Divergence, error)) (*Divergence, error) {
	div, err := once(tr)
	if err != nil || div == nil {
		return div, err
	}
	div.Repro = MinimizeTrace(tr, func(t *trace.Trace) bool {
		d, err := once(t)
		return err == nil && d != nil
	})
	if div.Repro != nil {
		if d2, err := once(div.Repro); err == nil && d2 != nil {
			d2.Repro = div.Repro
			return d2, nil
		}
	}
	return div, nil
}

func diffOnce(tr *trace.Trace, k int, mkA, mkB func() sim.Policy, engA, engB sim.Engine) (*Divergence, error) {
	ra, resA, err := record(tr, mkA(), sim.ConfigAt(k).WithEngine(engA))
	if err != nil {
		return nil, fmt.Errorf("check: side A failed: %w", err)
	}
	rb, resB, err := record(tr, mkB(), sim.ConfigAt(k).WithEngine(engB))
	if err != nil {
		return nil, fmt.Errorf("check: side B failed: %w", err)
	}
	return firstDivergence(ra, rb, resA, resB), nil
}

// DiffEngines replays the trace through one dense-capable policy twice —
// once on the batched dense engine, once on the map engine, which drives
// the policy's per-request sim.Policy methods — and reports any divergence
// in the per-tenant accounting. When the policy is core.Fast the final
// snapshots (aging, per-tenant counters, per-tenant recency order) are
// compared too, which catches internal-state drift that happens not to
// change the counters on this trace. The dense engine emits no per-step
// events, so divergences are aggregate-level (Step == -1); the trace is
// ddmin-minimized like the other oracles.
func DiffEngines(tr *trace.Trace, k int, mk func() sim.Policy) (*Divergence, error) {
	return minimizeDivergence(tr, func(t *trace.Trace) (*Divergence, error) {
		return diffEnginesOnce(t, k, mk)
	})
}

func diffEnginesOnce(tr *trace.Trace, k int, mk func() sim.Policy) (*Divergence, error) {
	pa := mk()
	resA, err := sim.Run(tr, pa, sim.ConfigAt(k).WithEngine(sim.EngineDense))
	if err != nil {
		return nil, fmt.Errorf("check: dense side failed: %w", err)
	}
	pb := mk()
	resB, err := sim.Run(tr, pb, sim.ConfigAt(k).WithEngine(sim.EngineMap))
	if err != nil {
		return nil, fmt.Errorf("check: map side failed: %w", err)
	}
	if div := resultDivergence("dense", "map", resA, resB); div != nil {
		return div, nil
	}
	fa, okA := pa.(*core.Fast)
	fb, okB := pb.(*core.Fast)
	if okA && okB {
		sa, sb := fa.Snapshot(), fb.Snapshot()
		if !reflect.DeepEqual(normalizeSnapshot(sa), normalizeSnapshot(sb)) {
			return &Divergence{
				Step: -1,
				A:    fmt.Sprintf("dense final state: aging=%v misses=%v pages=%d", sa.Aging, sa.Misses, len(sa.Pages)),
				B:    fmt.Sprintf("map final state: aging=%v misses=%v pages=%d", sb.Aging, sb.Misses, len(sb.Pages)),
			}, nil
		}
	}
	return nil, nil
}

// normalizeSnapshot clears empty-vs-nil distinctions that DeepEqual would
// flag but that carry no state.
func normalizeSnapshot(s core.FastSnapshot) core.FastSnapshot {
	if len(s.Misses) == 0 {
		s.Misses = nil
	}
	if len(s.Pages) == 0 {
		s.Pages = nil
	}
	return s
}

// ResetReuse checks that Reset fully restores a policy's initial state: a
// fresh instance and a reset-after-use instance must behave identically.
// This guards the registry contract every sweep and experiment relies on
// when reusing policy instances across runs.
func ResetReuse(tr *trace.Trace, k int, mk func() sim.Policy) (*Divergence, error) {
	reused := mk()
	if _, _, err := record(tr, reused, sim.ConfigAt(k)); err != nil {
		return nil, err
	}
	// The B factory resets before every (re-)run so minimization attempts
	// do not leak state between each other.
	mkB := func() sim.Policy { reused.Reset(); return reused }
	return DiffPolicies(tr, k, mk, mkB, sim.EngineAuto, sim.EngineAuto)
}
