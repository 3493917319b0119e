package core

import (
	"fmt"
	"math"

	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

var inf = math.Inf(1)

// Open is the open-world front end of the dense core: the same 32 B
// pageRec / 40 B tenantHot state machine the closed-world replay engine
// runs, driven one request at a time over a page universe discovered
// incrementally. It exists for the live cache service, whose shards learn
// their pages from client keys as they arrive — no trace, no pre-built
// trace.Dense — but must stay bit-exact with a closed-world replay of their
// logs (the /v1/cache/verify contract).
//
// Pages are identified by residue-class ids: shard s of n owns exactly the
// ids ≡ s (mod n), which is what the cached interner assigns, so the slot
// of page p is (p - base)/stride and the mapping back is base + slot*stride.
// Arithmetic, not a hash map, on the hot path; the record table grows on
// first touch.
//
// Open is not safe for concurrent use; the service gives each shard
// goroutine its own instance.
type Open struct {
	opt     Options
	tenants int
	stride  int64
	base    int64
	denseCore
}

// OpenWorld builds an open-world core sharing this instance's Options:
// tenants fixes the tenant-id universe, k the capacity, and (stride, base)
// the residue class of admissible page ids (base + j*stride for j ≥ 0).
func (f *Fast) OpenWorld(tenants, k, stride, base int) (*Open, error) {
	return NewOpen(f.opt, tenants, k, stride, base)
}

// NewOpen builds an open-world dense core.
func NewOpen(opt Options, tenants, k, stride, base int) (*Open, error) {
	if tenants < 1 {
		return nil, fmt.Errorf("core: open-world core needs at least one tenant, got %d", tenants)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: open-world core needs capacity >= 1, got %d", k)
	}
	if stride < 1 || base < 0 || base >= stride {
		return nil, fmt.Errorf("core: invalid residue class %d mod %d", base, stride)
	}
	o := &Open{opt: opt, tenants: tenants, stride: int64(stride), base: int64(base)}
	o.sizeTenants(tenants)
	o.initTenants(opt, k)
	return o, nil
}

// slot maps page id p to its record index, growing the table on first
// touch. Ids outside the residue class are a routing bug upstream and are
// rejected rather than silently remapped.
func (o *Open) slot(p trace.PageID) (int32, error) {
	d := int64(p) - o.base
	var ix int64
	if o.stride == 1 {
		// Single-shard services own every page; skip the int64 divide, which
		// is the most expensive instruction on this otherwise additive path.
		if d < 0 {
			return 0, fmt.Errorf("core: page %d outside residue class %d mod %d", p, o.base, o.stride)
		}
		ix = d
	} else {
		if d < 0 || d%o.stride != 0 {
			return 0, fmt.Errorf("core: page %d outside residue class %d mod %d", p, o.base, o.stride)
		}
		ix = d / o.stride
	}
	if ix > math.MaxInt32 {
		return 0, fmt.Errorf("core: page %d exceeds the open-world index range", p)
	}
	if n := ix + 1; int64(len(o.pr)) < n {
		if int64(cap(o.pr)) < n {
			// Double (at least) rather than letting append's large-slice
			// policy reallocate every ~25% growth — the table is hot state
			// and each reallocation copies the whole resident working set.
			nc := max(int64(2*cap(o.pr)), n, 256)
			np := make([]pageRec, len(o.pr), nc)
			copy(np, o.pr)
			o.pr = np
		}
		for int64(len(o.pr)) < n {
			o.pr = append(o.pr, pageRec{prev: -1, next: -1, owner: -1})
		}
	}
	return int32(ix), nil
}

// Access serves one request: page p by tenant t. It reports whether the
// request hit and, when the miss evicted a page, the victim's owner (-1
// otherwise). It composes the core's per-request methods — hit, or victim,
// evict and insert — whose event order and arithmetic are those of the
// replay engine's batched step, so a sequence of Access calls is bit-exact
// with a closed-world replay of the same requests.
func (o *Open) Access(p trace.PageID, t trace.Tenant) (hit bool, victimOwner trace.Tenant, err error) {
	ix, err := o.Bind(p, t)
	if err != nil {
		return false, -1, err
	}
	r := &o.pr[ix]
	if r.resident != 0 {
		o.hit(ix)
		return true, -1, nil
	}
	victimOwner = -1
	if o.used >= o.k {
		vo, v := o.victim()
		if v < 0 {
			return false, -1, fmt.Errorf("core: alg-fast found no victim (used=%d k=%d)", o.used, o.k)
		}
		o.evict(vo, v)
		victimOwner = vo
	}
	o.insert(ix)
	return false, victimOwner, nil
}

// Bind returns page p's record index, binding the page to tenant t on its
// first touch, as Access does before serving it. Keys are tenant-scoped
// upstream, so a page never changes owners; a mismatch is interner
// corruption, not a workload property.
func (o *Open) Bind(p trace.PageID, t trace.Tenant) (int32, error) {
	if int(t) < 0 || int(t) >= o.tenants {
		return 0, fmt.Errorf("core: tenant %d outside [0,%d)", t, o.tenants)
	}
	ix, err := o.slot(p)
	if err != nil {
		return 0, err
	}
	r := &o.pr[ix]
	if r.owner < 0 {
		r.owner = int32(t)
	} else if r.owner != int32(t) {
		return 0, fmt.Errorf("core: page %d owned by tenant %d, accessed by %d", p, r.owner, t)
	}
	return ix, nil
}

// Run serves a run of requests, given by record index, through the batched
// step the closed-world replay engine runs, sim.BatchSize at a time, and
// counts them into bc. Every record must be bound (Bind). A run leaves the
// state that Access serving the same pages one at a time leaves.
func (o *Open) Run(ixs []int32, bc *sim.BatchCounters) error {
	for base := 0; base < len(ixs); base += sim.BatchSize {
		if err := o.stepBatch(base, ixs[base:min(base+sim.BatchSize, len(ixs))], bc, false); err != nil {
			return err
		}
	}
	return nil
}

// Used returns the number of resident pages.
func (o *Open) Used() int { return o.used }

// Snapshot captures the core's state in the FastSnapshot format, with
// record indices mapped back to residue-class page ids.
func (o *Open) Snapshot() FastSnapshot {
	return o.snapshot(func(ix int32) trace.PageID { return trace.PageID(o.base + int64(ix)*o.stride) })
}
