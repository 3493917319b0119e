package core

import (
	"fmt"
	"math"

	"convexcache/internal/trace"
)

// LRUTable is the dense core's intrusive per-tenant recency machinery
// exposed on its own, for engines that need per-tenant LRU lists but not
// the budget arithmetic — the partition-mode quota engine being the user in
// this repo. It shares the 32 B pageRec layout and the residue-class slot
// mapping of the open-world core: page ids base + j*stride index a growable
// record table, each record carrying the intrusive links, the owner, and
// the residency flag (the budget fields ride along unused, keeping the
// layout — and the cache behavior of a mixed deployment — identical).
//
// Not safe for concurrent use.
type LRUTable struct {
	stride, base int64
	pr           []pageRec
	head, tail   []int32
	size         []int
	total        int
}

// NewLRUTable builds an empty table for the given tenant universe and
// residue class (page ids base + j*stride for j ≥ 0).
func NewLRUTable(tenants, stride, base int) (*LRUTable, error) {
	if tenants < 1 {
		return nil, fmt.Errorf("core: LRU table needs at least one tenant, got %d", tenants)
	}
	if stride < 1 || base < 0 || base >= stride {
		return nil, fmt.Errorf("core: invalid residue class %d mod %d", base, stride)
	}
	t := &LRUTable{
		stride: int64(stride),
		base:   int64(base),
		head:   make([]int32, tenants),
		tail:   make([]int32, tenants),
		size:   make([]int, tenants),
	}
	for i := range t.head {
		t.head[i] = -1
		t.tail[i] = -1
	}
	return t, nil
}

// slot maps page id p to its record index, growing the table on first touch.
func (t *LRUTable) slot(p trace.PageID) (int32, error) {
	d := int64(p) - t.base
	if d < 0 || d%t.stride != 0 {
		return 0, fmt.Errorf("core: page %d outside residue class %d mod %d", p, t.base, t.stride)
	}
	ix := d / t.stride
	if ix > math.MaxInt32 {
		return 0, fmt.Errorf("core: page %d exceeds the LRU table index range", p)
	}
	for int64(len(t.pr)) <= ix {
		t.pr = append(t.pr, pageRec{prev: -1, next: -1, owner: -1})
	}
	return int32(ix), nil
}

// pageOf maps a record index back to its page id.
func (t *LRUTable) pageOf(ix int32) trace.PageID {
	return trace.PageID(t.base + int64(ix)*t.stride)
}

// Touch moves page p to the front of tenant i's list if resident, reporting
// whether it was. An id outside the table's residue class is an error.
func (t *LRUTable) Touch(p trace.PageID, i trace.Tenant) (bool, error) {
	ix, err := t.slot(p)
	if err != nil {
		return false, err
	}
	r := &t.pr[ix]
	if r.resident == 0 {
		return false, nil
	}
	if r.owner != int32(i) {
		return false, fmt.Errorf("core: page %d owned by tenant %d, touched by %d", p, r.owner, i)
	}
	if t.head[i] != ix {
		t.unlink(i, ix)
		t.pushFront(i, ix)
	}
	return true, nil
}

// Insert links page p at the front of tenant i's list. Inserting a resident
// page is a caller bug and rejected.
func (t *LRUTable) Insert(p trace.PageID, i trace.Tenant) error {
	ix, err := t.slot(p)
	if err != nil {
		return err
	}
	r := &t.pr[ix]
	if r.resident != 0 {
		return fmt.Errorf("core: page %d inserted while resident", p)
	}
	r.owner = int32(i)
	r.resident = 1
	t.pushFront(i, ix)
	t.size[i]++
	t.total++
	return nil
}

// PopTail evicts and returns tenant i's least-recently-used page; ok is
// false when the tenant holds nothing.
func (t *LRUTable) PopTail(i trace.Tenant) (trace.PageID, bool) {
	ix := t.tail[i]
	if ix < 0 {
		return 0, false
	}
	t.unlink(i, ix)
	t.pr[ix].resident = 0
	t.size[i]--
	t.total--
	return t.pageOf(ix), true
}

// Len returns tenant i's resident page count.
func (t *LRUTable) Len(i trace.Tenant) int { return t.size[i] }

// Total returns the resident page count across all tenants.
func (t *LRUTable) Total() int { return t.total }

// Resident reports whether page p is cached. Ids outside the residue class
// are simply not resident.
func (t *LRUTable) Resident(p trace.PageID) bool {
	d := int64(p) - t.base
	if d < 0 || d%t.stride != 0 {
		return false
	}
	ix := d / t.stride
	if ix >= int64(len(t.pr)) {
		return false
	}
	return t.pr[ix].resident != 0
}

// PagesMRU returns tenant i's resident pages most-recent-first.
func (t *LRUTable) PagesMRU(i trace.Tenant) []int64 {
	out := make([]int64, 0, t.size[i])
	for ix := t.head[i]; ix >= 0; ix = t.pr[ix].next {
		out = append(out, int64(t.pageOf(ix)))
	}
	return out
}

func (t *LRUTable) pushFront(i trace.Tenant, ix int32) {
	h := t.head[i]
	t.pr[ix].prev = -1
	t.pr[ix].next = h
	if h >= 0 {
		t.pr[h].prev = ix
	} else {
		t.tail[i] = ix
	}
	t.head[i] = ix
}

func (t *LRUTable) unlink(i trace.Tenant, ix int32) {
	pr, nx := t.pr[ix].prev, t.pr[ix].next
	if pr >= 0 {
		t.pr[pr].next = nx
	} else {
		t.head[i] = nx
	}
	if nx >= 0 {
		t.pr[nx].prev = pr
	} else {
		t.tail[i] = pr
	}
	t.pr[ix].prev = -1
	t.pr[ix].next = -1
}
