// Package runspec is the run-spec layer of the repo: one declarative,
// serializable Scenario type that describes a complete simulation run —
// trace source, policy list, per-tenant cost specs, cache size(s), engine
// pin, seed, warmup and an observer chain — plus one Validate and one
// Execute planner that every entry point shares.
//
// Before this layer, /v1/simulate, /v1/mrc, /v1/jobs, the seven CLIs, the
// sweep harness and the examples each hand-rolled trace building, cost
// parsing, policy resolution and sim.Config assembly with drifting
// defaults. Now they all decode (or assemble) a Scenario; a new workload
// family, trace format or execution strategy is a change to this package
// alone.
//
// The package also exposes the thin imperative substrate under Execute —
// Run, RunContext and Interactive — for layers that already hold a built
// trace and policy (experiments, benchmarks, examples). Code below this
// layer (internal/check, internal/resilience) assembles sim.Config via
// sim.ConfigAt instead.
package runspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Scenario is the declarative run specification. The zero value is not
// runnable; Validate fills defaults (policy list, engine, workload seeds)
// and rejects contradictory specs, so every entry point shares one set of
// defaults instead of each handler and CLI growing its own.
type Scenario struct {
	// Name optionally labels the scenario in reports and golden files.
	Name string `json:"name,omitempty"`
	// Trace selects the request sequence source.
	Trace TraceSpec `json:"trace"`
	// Policies lists the eviction policies to replay; empty selects the
	// canonical default pair ["alg", "lru"]. Entries decode from either a
	// bare name string or a full object with per-policy options.
	Policies []PolicySpec `json:"policies,omitempty"`
	// Costs are per-tenant costfn.Parse specs; tenants beyond the list
	// default to linear:1 (the flush tenant, when Flush is set, gets the
	// paper's effectively-infinite flush cost instead).
	Costs []string `json:"costs,omitempty"`
	// K is the cache size in pages. Exactly one of K and KSweep must be
	// set.
	K int `json:"k,omitempty"`
	// KSweep replays every policy at each listed cache size.
	KSweep []int `json:"k_sweep,omitempty"`
	// Seed seeds randomized policies and, by default, workload generation.
	Seed int64 `json:"seed,omitempty"`
	// Warmup excludes the first N requests from the result counters.
	Warmup int `json:"warmup,omitempty"`
	// Engine pins the request loop: "auto" (default), "map" or "dense".
	// "dense" excludes observers: the dense engine emits no per-step events,
	// so "auto" runs observed rows on the map engine.
	Engine string `json:"engine,omitempty"`
	// Shards, when > 1, replays every row via deterministic sharded replay
	// (sim.RunSharded): pages are partitioned across this many single-writer
	// dense engines and the per-tenant accounting merged exactly. Requires
	// the dense engine, no observers, and every cache size >= Shards.
	Shards int `json:"shards,omitempty"`
	// Flush appends the paper's dummy-tenant flush so eviction counts
	// equal miss counts (trace.WithFlush).
	Flush bool `json:"flush,omitempty"`
	// Observers configures the composable observer chain.
	Observers ObserverSpec `json:"observers,omitempty"`

	// Runtime hooks, not part of the wire form.

	// PrebuiltTrace bypasses TraceSpec when the caller already holds a
	// trace (benchmarks reuse one densified trace across many cells).
	PrebuiltTrace *trace.Trace `json:"-"`
	// CostFuncs bypasses Costs when the caller already holds parsed cost
	// functions.
	CostFuncs []costfn.Func `json:"-"`
	// Progress receives step-progress deltas from every run (metrics).
	Progress func(delta int) `json:"-"`
	// Observer is appended to each run's observer chain.
	Observer sim.Observer `json:"-"`
	// RowObserver, when non-nil, contributes one fresh observer per
	// (policy, k) row — per-row collectors that must not mix events across
	// rows. It receives the row's materialized trace (sizing information
	// the caller lacks before Execute). Returning nil skips the row.
	RowObserver func(policy string, k int, tr *trace.Trace) sim.Observer `json:"-"`
	// PolicyHook, when non-nil, is consulted before the registry; the
	// server's tests use it to inject misbehaving policies.
	PolicyHook func(name string) sim.Policy `json:"-"`
	// Workers bounds the planner's worker pool; <= 1 runs the rows
	// sequentially in row order (the default, and what the HTTP handlers
	// want under their own concurrency limiter).
	Workers int `json:"-"`
	// BaseDir resolves relative TraceSpec.File paths (set by
	// ParseScenarioFile to the scenario file's directory).
	BaseDir string `json:"-"`
}

// TraceSpec selects exactly one request-sequence source.
type TraceSpec struct {
	// Inline is the wire form of /v1/simulate: rows of [tenant, page].
	Inline [][2]int64 `json:"inline,omitempty"`
	// File reads a trace file; "-" reads stdin. The format is
	// auto-detected (text or binary CXT1) unless Format says otherwise.
	File string `json:"file,omitempty"`
	// Format overrides detection for File: "auto" (default), "text",
	// "binary" or "block-csv" (MSR-style block-I/O CSV).
	Format string `json:"format,omitempty"`
	// PageBytes is the page size for block-csv parsing (default 4096).
	PageBytes int64 `json:"page_bytes,omitempty"`
	// Workload generates a synthetic trace from tenant stream specs.
	Workload *WorkloadSpec `json:"workload,omitempty"`
}

// WorkloadSpec generates a multi-tenant trace from the stream-spec syntax
// of cmd/tracegen (workload.ParseStream).
type WorkloadSpec struct {
	// Tenants holds one stream spec per tenant: KIND:PARAMS[:RATE].
	Tenants []TenantSpec `json:"tenants"`
	// Length is the trace length in requests.
	Length int `json:"length"`
	// Seed seeds the mixer and derives per-tenant stream seeds; 0 defers
	// to Scenario.Seed.
	Seed int64 `json:"seed,omitempty"`
}

// TenantSpec is one tenant stream. It decodes from either a bare spec
// string ("zipf:100,0.9:2") or an object with an explicit seed.
type TenantSpec struct {
	// Stream is the workload.ParseStream spec, KIND:PARAMS[:RATE].
	Stream string `json:"stream"`
	// Seed, when non-nil, pins this tenant's stream seed; nil derives
	// seed + index*1001 from the workload seed (the tracegen rule).
	Seed *int64 `json:"seed,omitempty"`
}

// UnmarshalJSON accepts a bare spec string or the full object form.
func (t *TenantSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &t.Stream)
	}
	type plain TenantSpec
	return strictUnmarshal(b, (*plain)(t))
}

// MarshalJSON emits the compact string form when only the stream spec is
// set, keeping golden files and round trips stable.
func (t TenantSpec) MarshalJSON() ([]byte, error) {
	if t.Seed == nil {
		return json.Marshal(t.Stream)
	}
	type plain TenantSpec
	return json.Marshal(plain(t))
}

// PolicySpec names one eviction policy plus its options. "alg" is the
// paper's algorithm (core.Fast); "alg-ref" is the O(k)-per-eviction
// Figure-3 reference implementation (core.Discrete); every other name
// resolves through the internal/policy registry.
type PolicySpec struct {
	// Name is the policy name.
	Name string `json:"name"`
	// DiscreteDeriv switches the algorithm to finite differences
	// (Section 2.5, arbitrary cost functions). Algorithm policies only.
	DiscreteDeriv bool `json:"discrete_deriv,omitempty"`
	// CountMisses drives the algorithm by fetch counts instead of
	// eviction counts. Algorithm policies only.
	CountMisses bool `json:"count_misses,omitempty"`
}

// UnmarshalJSON accepts a bare name string or the full object form.
func (p *PolicySpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &p.Name)
	}
	type plain PolicySpec
	return strictUnmarshal(b, (*plain)(p))
}

// MarshalJSON emits the compact string form when no option is set.
func (p PolicySpec) MarshalJSON() ([]byte, error) {
	if !p.DiscreteDeriv && !p.CountMisses {
		return json.Marshal(p.Name)
	}
	type plain PolicySpec
	return json.Marshal(plain(p))
}

// ObserverSpec declares the composable observer chain of a run. Each
// enabled element becomes a sim.Observer (or policy wrapper) applied to
// every row; elements compose through sim.MultiObserver in the order
// metrics-window, invariants, fault.
type ObserverSpec struct {
	// Check wraps every policy in the internal/check shadow-model
	// contract checker and replays the event stream through the full
	// invariant observer; violations fail the row.
	Check bool `json:"check,omitempty"`
	// Fault is a fault.ParseSpec string injecting seeded latency/panic
	// faults into the run (chaos drills).
	Fault string `json:"fault,omitempty"`
	// Window, when positive, collects per-window per-tenant miss counts
	// into Row.Windows.
	Window int `json:"window,omitempty"`
}

// SpecError marks a scenario that failed validation or compilation —
// caller mistakes (HTTP 400), as opposed to runtime failures.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// engine maps the wire engine name onto sim.Engine.
var engines = map[string]sim.Engine{
	"":      sim.EngineAuto,
	"auto":  sim.EngineAuto,
	"map":   sim.EngineMap,
	"dense": sim.EngineDense,
}

// Validate checks the scenario and fills the shared defaults in place:
// the canonical default policy pair ["alg", "lru"], the "auto" engine, and
// the workload seed (deferred to Scenario.Seed). It returns a *SpecError
// on contradictions — duplicate policy entries, missing or ambiguous trace
// source, non-positive cache sizes — so transports can map it to a 400.
func (sc *Scenario) Validate() error {
	if err := sc.Trace.validate(sc.PrebuiltTrace != nil); err != nil {
		return err
	}
	if len(sc.Policies) == 0 {
		sc.Policies = []PolicySpec{{Name: "alg"}, {Name: "lru"}}
	}
	seen := make(map[string]bool, len(sc.Policies))
	for _, p := range sc.Policies {
		if strings.TrimSpace(p.Name) == "" {
			return specErrf("runspec: empty policy name")
		}
		if seen[p.Name] {
			// Duplicate rows would be indistinguishable in the output and
			// randomized duplicates would re-seed identically, silently
			// reporting one run twice.
			return specErrf("runspec: duplicate policy %q", p.Name)
		}
		seen[p.Name] = true
	}
	if sc.K <= 0 && len(sc.KSweep) == 0 {
		return specErrf("runspec: k must be positive")
	}
	if sc.K > 0 && len(sc.KSweep) > 0 {
		return specErrf("runspec: k and k_sweep are mutually exclusive")
	}
	for _, k := range sc.KSweep {
		if k <= 0 {
			return specErrf("runspec: k_sweep entry %d must be positive", k)
		}
	}
	if _, ok := engines[sc.Engine]; !ok {
		return specErrf("runspec: unknown engine %q (want auto, map or dense)", sc.Engine)
	}
	if sc.Warmup < 0 {
		return specErrf("runspec: warmup must be non-negative")
	}
	if sc.Observers.Window < 0 {
		return specErrf("runspec: observer window must be non-negative")
	}
	if sc.Shards < 0 {
		return specErrf("runspec: shards must be non-negative")
	}
	observed := sc.Observers.Check || sc.Observers.Fault != "" || sc.Observers.Window > 0 || sc.Observer != nil || sc.RowObserver != nil
	if sc.Engine == "dense" && observed {
		// The dense engine serves requests in batches and emits no per-step
		// events; observed runs take the map engine.
		return specErrf("runspec: the dense engine and observers are mutually exclusive (observed runs need engine auto or map)")
	}
	if sc.Shards > 1 {
		// Sharded replay is dense-only and delivers no per-step events:
		// concurrent shards would interleave them nondeterministically.
		if sc.Engine == "map" {
			return specErrf("runspec: shards require the dense engine, not %q", sc.Engine)
		}
		if observed {
			return specErrf("runspec: shards and observers are mutually exclusive")
		}
		for _, k := range sc.Ks() {
			if k < sc.Shards {
				return specErrf("runspec: every cache size must be >= shards (k=%d < shards=%d)", k, sc.Shards)
			}
		}
	}
	if sc.Trace.Workload != nil && sc.Trace.Workload.Seed == 0 {
		sc.Trace.Workload.Seed = sc.Seed
	}
	return nil
}

// validate checks the trace source; prebuilt reports whether a runtime
// trace bypasses the spec.
func (t *TraceSpec) validate(prebuilt bool) error {
	sources := 0
	if len(t.Inline) > 0 {
		sources++
	}
	if t.File != "" {
		sources++
	}
	if t.Workload != nil {
		sources++
	}
	if prebuilt {
		if sources > 0 {
			return specErrf("runspec: prebuilt trace and trace spec are mutually exclusive")
		}
		return nil
	}
	switch sources {
	case 0:
		return specErrf("runspec: trace source required (inline, file or workload)")
	case 1:
	default:
		return specErrf("runspec: exactly one trace source allowed (inline, file or workload)")
	}
	switch t.Format {
	case "", "auto", "text", "binary", "block-csv":
	default:
		return specErrf("runspec: unknown trace format %q (want auto, text, binary or block-csv)", t.Format)
	}
	if t.Format == "block-csv" && t.File == "" {
		return specErrf("runspec: block-csv format requires a file source")
	}
	if t.Format != "" && t.Format != "auto" && t.File == "" {
		return specErrf("runspec: trace format applies to the file source only")
	}
	if t.PageBytes < 0 {
		return specErrf("runspec: page_bytes must be non-negative")
	}
	if t.Workload != nil {
		if len(t.Workload.Tenants) == 0 {
			return specErrf("runspec: workload needs at least one tenant stream")
		}
		if t.Workload.Length <= 0 {
			return specErrf("runspec: workload length must be positive")
		}
	}
	return nil
}

// Ks returns the cache sizes the scenario runs at, in execution order.
func (sc *Scenario) Ks() []int {
	if len(sc.KSweep) > 0 {
		return sc.KSweep
	}
	return []int{sc.K}
}

// ParseScenario decodes a Scenario from strict JSON: unknown fields and
// trailing garbage are errors, so a typo'd field cannot silently fall back
// to a default. It does not Validate.
func ParseScenario(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := strictUnmarshal(data, &sc); err != nil {
		return nil, &SpecError{msg: "runspec: " + err.Error()}
	}
	return &sc, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields and trailing data
// rejected.
func strictUnmarshal(data []byte, dst any) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
