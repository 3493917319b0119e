// Package check is the correctness-tooling layer of the reproduction: it
// turns the paper's guarantees and the engine's cache semantics into
// always-on, mechanically checkable invariants, and pairs every fast-path
// implementation with an oracle it must agree with bit-for-bit.
//
// Three entry points are provided:
//
//   - Wrap adapts any sim.Policy so that every callback is validated against
//     a shadow model of the cache (residency, ownership disjointness,
//     occupancy bounds). Usable from any test or experiment.
//
//   - Run executes a full simulation under per-step invariant assertions
//     (occupancy <= k, hit/miss/eviction accounting consistent with the
//     returned Result, monotone cumulative convex cost).
//
//   - The differential oracles (DiffEngines, DiffPolicies, ResetReuse)
//     replay one trace through pairs of implementations that must agree —
//     dense engine vs map engine (counters and final core.FastSnapshot),
//     core.Fast vs the Figure-3 reference, a reset instance vs a fresh one —
//     and report the first diverging step together with a ddmin-minimized
//     repro trace.
//
// cmd/check runs the full oracle matrix over generated workloads for CI, and
// FuzzDifferential / FuzzInvariants drive the same checks from go fuzzing.
package check

import (
	"fmt"
	"strings"

	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Violation is one detected invariant breach, anchored to the request step
// that exposed it.
type Violation struct {
	// Step is the 0-based request index at which the breach was detected.
	Step int
	// Kind is a short machine-comparable label ("occupancy", "residency",
	// "accounting", "monotone-cost", "divergence", "bound", ...).
	Kind string
	// Msg is the human-readable description.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d [%s]: %s", v.Step, v.Kind, v.Msg)
}

// Error aggregates violations into an error.
type Error struct {
	// Violations are the breaches in detection order.
	Violations []Violation
}

func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "check: no violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d violation(s); first: %s", len(e.Violations), e.Violations[0])
	return b.String()
}

// AsError returns nil for an empty violation list, else an *Error.
func AsError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return &Error{Violations: vs}
}

// Checked wraps a sim.Policy with a shadow cache model validating the
// engine<->policy contract at every callback. It forwards the OfflinePolicy
// capability of the wrapped policy but not DensePolicy: the dense engine
// serves requests in batches inside the policy, where no callback exists to
// check, so a wrapped policy always runs on the map engine.
type Checked struct {
	inner sim.Policy

	resident map[trace.PageID]trace.Tenant
	owner    map[trace.PageID]trace.Tenant

	// kHat is the occupancy observed at the first Victim call: the engine
	// only asks for a victim when the cache is full, so this pins k.
	kHat int

	violations []Violation
}

// Wrap returns p wrapped with contract checking. The wrapped policy reports
// breaches via Violations/Err rather than panicking, so tests can assert on
// them and fuzzing can minimize the inputs that cause them.
func Wrap(p sim.Policy) *Checked {
	c := &Checked{inner: p}
	c.resetShadow()
	return c
}

// Unwrap returns the wrapped policy.
func (c *Checked) Unwrap() sim.Policy { return c.inner }

// Violations returns the breaches detected so far, in order.
func (c *Checked) Violations() []Violation { return c.violations }

// Err returns nil when no breach was detected, else an *Error.
func (c *Checked) Err() error { return AsError(c.violations) }

func (c *Checked) violate(step int, kind, format string, args ...any) {
	c.violations = append(c.violations, Violation{Step: step, Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

func (c *Checked) resetShadow() {
	c.resident = make(map[trace.PageID]trace.Tenant)
	c.owner = make(map[trace.PageID]trace.Tenant)
	c.kHat = 0
}

// Name implements sim.Policy.
func (c *Checked) Name() string { return "checked(" + c.inner.Name() + ")" }

// Reset implements sim.Policy, clearing both the wrapped policy and the
// shadow model. Detected violations are kept (they describe the past run).
func (c *Checked) Reset() {
	c.inner.Reset()
	c.resetShadow()
}

// Prepare forwards the indexed trace when the wrapped policy is offline.
// The engine calls it unconditionally because Checked always satisfies
// sim.OfflinePolicy; for online policies it is a no-op, matching the
// engine's behavior on the unwrapped policy.
func (c *Checked) Prepare(ix *trace.Indexed) {
	if op, ok := c.inner.(sim.OfflinePolicy); ok {
		op.Prepare(ix)
	}
}

// OnHit implements sim.Policy.
func (c *Checked) OnHit(step int, r trace.Request) {
	if ow, ok := c.resident[r.Page]; !ok {
		c.violate(step, "residency", "OnHit for page %d which the shadow model holds absent", r.Page)
	} else if ow != r.Tenant {
		c.violate(step, "ownership", "OnHit for page %d as tenant %d, resident under tenant %d", r.Page, r.Tenant, ow)
	}
	c.checkOwner(step, r)
	c.inner.OnHit(step, r)
}

// OnInsert implements sim.Policy.
func (c *Checked) OnInsert(step int, r trace.Request) {
	if _, ok := c.resident[r.Page]; ok {
		c.violate(step, "residency", "OnInsert for page %d which is already resident", r.Page)
	}
	c.checkOwner(step, r)
	c.resident[r.Page] = r.Tenant
	if c.kHat > 0 && len(c.resident) > c.kHat {
		c.violate(step, "occupancy", "occupancy %d exceeds inferred capacity %d after insert of page %d",
			len(c.resident), c.kHat, r.Page)
	}
	c.inner.OnInsert(step, r)
}

// Victim implements sim.Policy.
func (c *Checked) Victim(step int, r trace.Request) trace.PageID {
	if c.kHat == 0 {
		c.kHat = len(c.resident)
	} else if len(c.resident) != c.kHat {
		c.violate(step, "occupancy", "Victim called at occupancy %d, but capacity was pinned to %d",
			len(c.resident), c.kHat)
	}
	v := c.inner.Victim(step, r)
	if _, ok := c.resident[v]; !ok {
		c.violate(step, "victim", "policy %s returned victim %d not in the shadow cache", c.inner.Name(), v)
	}
	return v
}

// OnEvict implements sim.Policy.
func (c *Checked) OnEvict(step int, p trace.PageID) {
	if _, ok := c.resident[p]; !ok {
		c.violate(step, "residency", "OnEvict for page %d which the shadow model holds absent", p)
	}
	delete(c.resident, p)
	c.inner.OnEvict(step, p)
}

// checkOwner pins page ownership on first sight and verifies tenant
// disjointness afterwards: a page must never be requested under two owners.
func (c *Checked) checkOwner(step int, r trace.Request) {
	if ow, ok := c.owner[r.Page]; ok {
		if ow != r.Tenant {
			c.violate(step, "ownership", "page %d requested by tenant %d but owned by tenant %d", r.Page, r.Tenant, ow)
		}
		return
	}
	c.owner[r.Page] = r.Tenant
}
