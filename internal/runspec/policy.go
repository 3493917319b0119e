package runspec

import (
	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/policy"
	"convexcache/internal/sim"
)

// CompiledPolicy is one resolved policy row of the plan: a display label
// (the requested name, independent of the implementation's own Name()) and
// a factory producing a fresh instance per run, so concurrent or repeated
// rows never share mutable state.
type CompiledPolicy struct {
	// Label is the requested policy name.
	Label string
	// New builds a fresh policy instance.
	New func() sim.Policy
}

// CompilePolicies resolves the scenario's policy list for a cache of size
// k over tenants with the given cost functions. Unknown names are a
// *SpecError so transports answer 400 before any simulation work starts.
func (sc *Scenario) CompilePolicies(k, tenants int, costs []costfn.Func) ([]CompiledPolicy, error) {
	out := make([]CompiledPolicy, 0, len(sc.Policies))
	spec := policy.Spec{K: k, Tenants: tenants, Costs: costs, Seed: sc.Seed}
	for _, ps := range sc.Policies {
		cp, err := sc.compileOne(ps, spec, costs)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}

// compileOne resolves a single policy spec, consulting the hook first.
func (sc *Scenario) compileOne(ps PolicySpec, spec policy.Spec, costs []costfn.Func) (CompiledPolicy, error) {
	name := ps.Name
	if sc.PolicyHook != nil {
		if p := sc.PolicyHook(name); p != nil {
			// The hook owns instance construction; re-invoke it per run so
			// every row still gets a fresh instance.
			hook := sc.PolicyHook
			return CompiledPolicy{Label: name, New: func() sim.Policy {
				return hook(name)
			}}, nil
		}
	}
	switch name {
	case "alg":
		opt := core.Options{Costs: costs, UseDiscreteDeriv: ps.DiscreteDeriv, CountMisses: ps.CountMisses}
		return CompiledPolicy{
			Label: name,
			New:   func() sim.Policy { return core.NewFast(opt) },
		}, nil
	case "alg-ref":
		opt := core.Options{Costs: costs, UseDiscreteDeriv: ps.DiscreteDeriv, CountMisses: ps.CountMisses}
		return CompiledPolicy{
			Label: name,
			New:   func() sim.Policy { return core.NewDiscrete(opt) },
		}, nil
	}
	if ps.DiscreteDeriv || ps.CountMisses {
		return CompiledPolicy{}, specErrf("runspec: policy %q does not take algorithm options", name)
	}
	// Resolve now so typos surface before any run; rebuild per row.
	if _, err := policy.New(name, spec); err != nil {
		return CompiledPolicy{}, &SpecError{msg: err.Error()}
	}
	return CompiledPolicy{Label: name, New: func() sim.Policy {
		return policy.MustNew(name, spec)
	}}, nil
}

// PolicyNames lists every name the run-spec layer resolves: the paper's
// algorithm in both implementations plus the registry baselines.
func PolicyNames() []string {
	return append([]string{"alg", "alg-ref"}, policy.Names()...)
}
