package bufferpool

import (
	"container/list"

	"convexcache/internal/core"
	"convexcache/internal/trace"
)

// Replacer picks buffer-pool eviction victims. Unlike sim.Policy it must
// honour pins: Evict receives a skip predicate (pinned or non-resident
// pages) and may have to pass over its first choice.
type Replacer interface {
	// Touch notifies the replacer of an access (hit or miss-insert).
	Touch(step int, r trace.Request, hit bool)
	// Evict removes and returns an evictable page, honouring skip. It
	// returns false when no unpinned page exists.
	Evict(step int, incoming trace.Request, skip func(trace.PageID) bool) (trace.PageID, bool)
	// Reset clears all state.
	Reset()
}

// LRUReplacer is the classical recency replacer with pin skipping.
type LRUReplacer struct {
	order *list.List // front = most recent
	elem  map[trace.PageID]*list.Element
}

// NewLRUReplacer returns an empty LRU replacer.
func NewLRUReplacer() *LRUReplacer {
	return &LRUReplacer{order: list.New(), elem: make(map[trace.PageID]*list.Element)}
}

// Touch implements Replacer.
func (l *LRUReplacer) Touch(step int, r trace.Request, hit bool) {
	if e, ok := l.elem[r.Page]; ok {
		l.order.MoveToFront(e)
		return
	}
	l.elem[r.Page] = l.order.PushFront(r.Page)
}

// Evict implements Replacer: walk from the LRU end skipping pinned pages.
func (l *LRUReplacer) Evict(step int, incoming trace.Request, skip func(trace.PageID) bool) (trace.PageID, bool) {
	for e := l.order.Back(); e != nil; e = e.Prev() {
		p := e.Value.(trace.PageID)
		if skip(p) {
			continue
		}
		l.order.Remove(e)
		delete(l.elem, p)
		return p, true
	}
	return 0, false
}

// Reset implements Replacer.
func (l *LRUReplacer) Reset() {
	l.order.Init()
	l.elem = make(map[trace.PageID]*list.Element)
}

// ConvexReplacer embeds the paper's budget rule (the core.Fast formulation)
// in the buffer pool: the victim is the least-recently-used unpinned page of
// the tenant minimizing marginal(i) - aging(candidate), equal budgets going
// to the earliest last touch as in core.Fast and core.Discrete. Pins make
// the scan walk past the per-tenant LRU end when necessary.
type ConvexReplacer struct {
	opt     core.Options
	aging   float64
	nextSeq int64
	m       map[trace.Tenant]float64
	lists   map[trace.Tenant]*list.List // front = most recent
	elem    map[trace.PageID]*list.Element
	info    map[trace.PageID]*convexPage
}

type convexPage struct {
	owner    trace.Tenant
	ageStart float64
	seq      int64 // last-touch sequence, the tie-break
}

// NewConvexReplacer builds the replacer with the tenants' cost options.
func NewConvexReplacer(opt core.Options) *ConvexReplacer {
	c := &ConvexReplacer{opt: opt}
	c.Reset()
	return c
}

// Touch implements Replacer.
func (c *ConvexReplacer) Touch(step int, r trace.Request, hit bool) {
	c.nextSeq++
	if e, ok := c.elem[r.Page]; ok {
		c.lists[r.Tenant].MoveToFront(e)
		c.info[r.Page].ageStart = c.aging
		c.info[r.Page].seq = c.nextSeq
		return
	}
	l, ok := c.lists[r.Tenant]
	if !ok {
		l = list.New()
		c.lists[r.Tenant] = l
	}
	c.elem[r.Page] = l.PushFront(r.Page)
	c.info[r.Page] = &convexPage{owner: r.Tenant, ageStart: c.aging, seq: c.nextSeq}
	if c.opt.CountMisses && !hit {
		c.m[r.Tenant]++
	}
}

// Evict implements Replacer: per tenant, the best candidate is the
// least-recently-used unpinned page; across tenants the minimum budget wins,
// and the earliest last touch breaks ties, so the map's iteration order
// never decides.
func (c *ConvexReplacer) Evict(step int, incoming trace.Request, skip func(trace.PageID) bool) (trace.PageID, bool) {
	var bestPage trace.PageID
	bestBudget := 0.0
	bestSeq := int64(0)
	found := false
	for tn, l := range c.lists {
		marg := c.opt.Marginal(tn, c.m[tn])
		for e := l.Back(); e != nil; e = e.Prev() {
			p := e.Value.(trace.PageID)
			if skip(p) {
				continue
			}
			pi := c.info[p]
			b := marg - (c.aging - pi.ageStart)
			if !found || b < bestBudget || (b == bestBudget && pi.seq < bestSeq) {
				bestPage, bestBudget, bestSeq, found = p, b, pi.seq, true
			}
			break // older unpinned candidates of this tenant cannot beat this one
		}
	}
	if !found {
		return 0, false
	}
	info := c.info[bestPage]
	c.aging += bestBudget
	if !c.opt.CountMisses {
		c.m[info.owner]++
	}
	c.lists[info.owner].Remove(c.elem[bestPage])
	delete(c.elem, bestPage)
	delete(c.info, bestPage)
	return bestPage, true
}

// Reset implements Replacer.
func (c *ConvexReplacer) Reset() {
	c.aging = 0
	c.nextSeq = 0
	c.m = make(map[trace.Tenant]float64)
	c.lists = make(map[trace.Tenant]*list.List)
	c.elem = make(map[trace.PageID]*list.Element)
	c.info = make(map[trace.PageID]*convexPage)
}
