package cached

import (
	"fmt"

	"convexcache/internal/core"
	"convexcache/internal/trace"
)

// quotaLRU is the partition-mode shard engine: per-tenant LRU lists under
// per-tenant page quotas. It exists because adaptive capacity needs quotas
// that change at runtime AND bit-exact live-vs-replay verification: the
// same code runs in the live shard loop and in the offline replay, and
// every operation is deterministic (intrusive linked lists over the dense
// core's record table, no map iteration anywhere), so replaying a shard's
// log through a fresh instance reproduces the live counters exactly.
//
// The recency machinery is core.LRUTable — the same intrusive per-tenant
// lists, 32-byte page records and residue-class slot mapping the dense
// budget engine runs on — so partition mode and budget mode share one
// list implementation and differ only in the victim rule (own-tail under
// quota vs global budget argmin).
//
// Semantics per access: a resident page moves to its tenant's MRU position;
// a miss with a zero quota is counted but not inserted (the tenant holds no
// capacity); otherwise the tenant at quota evicts its own LRU tail first.
// Tenants only ever evict their own pages — cross-tenant pressure is
// mediated entirely by quota changes, which trim the shrinking tenant's LRU
// tail immediately.
type quotaLRU struct {
	quotas []int
	tab    *core.LRUTable
}

// newQuotaLRU builds a partition engine for the given local quota vector
// over the residue class base mod stride (the owning shard's page-id class).
func newQuotaLRU(quotas []int, stride, base int) *quotaLRU {
	tab, err := core.NewLRUTable(len(quotas), stride, base)
	if err != nil {
		// Shard geometry is validated in New; reaching here is a caller bug.
		panic(err)
	}
	return &quotaLRU{
		quotas: append([]int(nil), quotas...),
		tab:    tab,
	}
}

// Access serves one request. Returns whether it hit and whether an eviction
// occurred (evictions are always of the requesting tenant's own LRU tail).
// Pages arrive from the shard's own interner, so a residue-class or owner
// violation is engine corruption and panics into the shard's rebuild path.
func (q *quotaLRU) Access(t trace.Tenant, p trace.PageID) (hit, evicted bool) {
	hit, err := q.tab.Touch(p, t)
	if err != nil {
		panic(err)
	}
	if hit {
		return true, false
	}
	if q.quotas[t] <= 0 {
		// No capacity: the miss is served but the page is not admitted.
		return false, false
	}
	if q.tab.Len(t) >= q.quotas[t] {
		if _, ok := q.tab.PopTail(t); !ok {
			panic(fmt.Sprintf("cached: tenant %d at quota %d with empty list", t, q.quotas[t]))
		}
		evicted = true
	}
	if err := q.tab.Insert(p, t); err != nil {
		panic(err)
	}
	return false, evicted
}

// SetQuotas installs a new quota vector, trimming each shrinking tenant's
// LRU tail to fit. Returns the number of pages evicted per tenant.
func (q *quotaLRU) SetQuotas(quotas []int) []int {
	evictions := make([]int, len(q.quotas))
	for t := range q.quotas {
		nq := 0
		if t < len(quotas) {
			nq = quotas[t]
		}
		q.quotas[t] = nq
		for q.tab.Len(trace.Tenant(t)) > nq {
			q.tab.PopTail(trace.Tenant(t))
			evictions[t]++
		}
	}
	return evictions
}

// Occupancy is the total resident page count.
func (q *quotaLRU) Occupancy() int { return q.tab.Total() }
