package core

import (
	"fmt"

	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Fast is the production implementation of the paper's algorithm.
//
// It relies on the following reformulation of Figure 3's budget dynamics:
// the budget of a cached page p always equals
//
//	B(p) = marginal(i(p), m_i) - (A - ageStart(p))
//
// where marginal(i, m) = f_i'(m+1), A is the running sum of evicted budgets
// (the global aging), and ageStart(p) is the value of A at p's last request.
// The subtraction step of Figure 3 is the growth of A; the same-owner
// correction is absorbed by evaluating marginal at the owner's current
// counter; the hit refresh resets ageStart.
//
// Because A is monotone, within a tenant the minimum-budget page is always
// the least-recently-requested one, so a per-tenant recency list suffices
// and an eviction costs O(#tenants).
//
// Fast runs one state machine, denseCore, through its two request paths.
// Driven by sim.Run on an indexable trace it implements sim.DensePolicy: the
// engine hands it runs of sim.BatchSize requests and the core's batched step
// serves them over the trace's dense page indices, allocation-free, with
// per-page and per-tenant state laid out hot/cold (see denseCore). Driven
// through its sim.Policy methods — by the map engine (observed runs) or
// directly by the lower-bound adversary and the hierarchy and multipool
// substrates — the core's per-request methods serve each call behind a
// PageID→record map that assigns an index on first sight; per-tenant state
// grows on first sight too. A dense replay and a direct drive never share
// state: PrepareDense starts a fresh replay, and the first sim.Policy call
// after one starts a fresh drive.
//
// The open-world Open front end (the live cache service's shard engine)
// composes the same per-request methods.
type Fast struct {
	opt Options
	// d is the trace view of the current dense replay; nil in a direct drive.
	d *trace.Dense
	// ids and pages map page ids to record indices and back in a direct
	// drive.
	ids   map[trace.PageID]int32
	pages []trace.PageID
	denseCore
}

// tenantHot packs the per-tenant state the hit path and the victim scan
// touch into one 40-byte record: the cached marginal(i, m[i]), a mirror of
// the tail page's aging origin so the victim scan never chases a pointer
// into the page array, the precomputed victim-scan key (see below), the
// recency-list endpoints, a mirror of the tail's predecessor so an eviction
// never reads the victim's (cold, by definition least-recently-touched)
// page record, and whether the tenant's marginal is constant (linear cost,
// recompute skipped entirely).
//
// key caches marg + tailAge. Budgets are compared, never consumed, by the
// victim scan, and for any two tenants
//
//	marg_i - (A - tailAge_i) < marg_j - (A - tailAge_j)
//	  <=>  marg_i + tailAge_i < marg_j + tailAge_j
//
// in exact arithmetic: the shared aging term cancels. Comparing the cached
// key therefore selects the same victim while making the scan pure compares
// of precomputed values with no dependence on the aging counter — which
// matters because the aging update is a serial FP chain across evictions,
// and with the key the scan no longer waits on it. The key is recomputed
// (one add) wherever marg or tailAge changes. Both request paths compare the
// same fl(marg + tailAge); when A grows so large that ulp-level rounding
// makes keys collide, the sequence tie-break (global LRU order) decides,
// identically everywhere.
type tenantHot struct {
	marg       float64
	tailAge    float64 // pr[tail].ageStart mirror, valid while tail >= 0
	key        float64 // marg + tailAge, the victim-scan comparison key
	head, tail int32   // most/least recently requested cached page, -1 empty
	tailPrev   int32   // pr[tail].prev mirror, valid while tail >= 0
	constMarg  bool
}

// pageRec packs all per-page state — the aging origin, the tie-break
// sequence, the intrusive LRU links, the owner, and the residency flag —
// into exactly 32 bytes, two per cache line. The batched request loop
// therefore resolves a probe (resident?), the owner lookup and the insert
// bookkeeping for a page with a single random cache line, where the first
// cut of the dense path touched three arrays (page->slot, owners,
// ages+links) per request.
type pageRec struct {
	ageStart float64
	seq      int64
	// prev/next are the intrusive per-tenant LRU links, -1 = nil.
	prev, next int32
	// owner is the page's tenant: mirrored from trace.Dense.Owners in a
	// replay, assigned at insert in a direct drive and at first touch in
	// Open (-1 until then).
	owner int32
	// resident is 1 while the page is cached.
	resident int32
}

// denseCore is the struct-of-arrays state machine of ALG, split hot/cold:
// th holds everything the victim scan reads (one line per two tenants), pr
// holds the per-page records the hit and insert paths write, and the
// per-tenant miss counters m stay cold — they are read only when a marginal
// is recomputed. All page-indexed state uses a record index: the trace.Dense
// index in a replay, the first-sight index in a direct drive of Fast, the
// residue-class slot (page - base)/stride in Open. Nothing in the core
// references a trace, which is what lets the live service drive it with
// pages it has never seen before.
//
// The core has exactly two request paths: the per-request methods hit,
// victim, evict and insert, and the batched stepBatch. Both run the same
// arithmetic in the same order, so any sequence of requests leaves the same
// state whichever path served it.
type denseCore struct {
	aging float64

	// Hot per-tenant state, indexed by tenant id.
	th []tenantHot
	// Cold per-tenant state: the miss counter m(i) and the resolved cost
	// functions, read only when a marginal is recomputed.
	m  []float64
	fs []costfn.Func
	// cb devirtualizes the dominant marginal recompute: for a true-derivative
	// Monomial with Beta == 2 it holds C*Beta, and margAt evaluates
	// cb*(m+1) directly — bit-identical to Monomial.Deriv's quadratic fast
	// path, which multiplies (C*Beta)*x left to right — skipping the
	// interface dispatch an eviction would otherwise pay. Zero selects the
	// generic path (a C == 0 monomial has a zero marginal either way).
	cb []float64

	// Per-page state.
	pr []pageRec

	// Residency bookkeeping: occupied page count and capacity (zero in a
	// direct drive of Fast, where the driver owns capacity).
	used, k int

	nextSeq int64

	// Option flags hoisted out of Options so the hot loop never copies the
	// Options struct.
	discrete    bool
	countMisses bool
	noCursor    bool

	// Incremental victim-argmin cursor. While vTen >= 0 the following holds:
	// th[vTen].tail >= 0, vKey == th[vTen].key, and
	//
	//	vKey < vSecond <= min over every other nonempty tenant's key,
	//
	// i.e. vTen is the UNIQUE strict minimum, so the victim is th[vTen].tail
	// with no scan and no sequence tie-break (strictness rules ties out).
	// Every key-changing event calls noteKey, which either tightens the
	// cached bounds or invalidates the cursor; the next eviction's full scan
	// re-arms it. vSecond is a lower bound that only ever needs to hold for
	// the keys it has seen: keys can silently grow past it (fine — the bound
	// stays valid) but never silently shrink below it.
	vTen    int32
	vKey    float64
	vSecond float64

	// prefetchSink absorbs the batched loop's prefetch pass so it is not
	// dead-code-eliminated; the value is meaningless.
	prefetchSink int32
}

// margAt recomputes tenant i's marginal from its current miss counter. The
// arithmetic is identical to Options.marginal, but the cost function is
// pre-resolved and the mode branch pre-hoisted, so an eviction pays one
// interface dispatch instead of an Options copy plus default resolution.
func (s *denseCore) margAt(i trace.Tenant) float64 {
	if cb := s.cb[i]; cb != 0 {
		return cb * (s.m[i] + 1)
	}
	if s.discrete {
		return costfn.DiscreteDeriv(s.fs[i], s.m[i])
	}
	return s.fs[i].Deriv(s.m[i] + 1)
}

// initTenants (re)initializes the core for capacity k and the tenants its
// th/m/fs/cb slices already hold.
func (s *denseCore) initTenants(opt Options, k int) {
	s.aging = 0
	s.nextSeq = 0
	s.used = 0
	s.k = k
	s.discrete = opt.UseDiscreteDeriv
	s.countMisses = opt.CountMisses
	s.vTen = -1
	for i := range s.th {
		s.initTenant(opt, trace.Tenant(i))
	}
	s.setCursorRule(opt)
}

// initTenant resets tenant i's state to an empty list at zero misses.
func (s *denseCore) initTenant(opt Options, i trace.Tenant) {
	s.m[i] = 0
	s.fs[i] = opt.cost(i)
	// A linear tenant's derivative never moves, so its marginal is computed
	// once here and the per-eviction recompute skipped. (The discrete finite
	// difference of a linear cost is not bit-stable for large counters, so
	// the shortcut applies to true derivatives only.)
	_, lin := s.fs[i].(costfn.Linear)
	s.cb[i] = 0
	if mono, ok := s.fs[i].(costfn.Monomial); ok && !s.discrete && mono.Beta == 2 {
		s.cb[i] = mono.C * mono.Beta
	}
	marg := opt.marginal(i, 0)
	s.th[i] = tenantHot{
		marg:      marg,
		key:       marg, // tailAge is zero until the first insert
		head:      -1,
		tail:      -1,
		tailPrev:  -1,
		constMarg: lin && !s.discrete,
	}
}

// setCursorRule applies the victim cursor's arming rule for the current
// tenant count; see victimCursorMinTenants.
func (s *denseCore) setCursorRule(opt Options) {
	s.noCursor = opt.NoVictimCursor ||
		(!opt.ForceVictimCursor && len(s.th) < victimCursorMinTenants)
}

// sizeTenants resizes the per-tenant slices to n entries, reusing their
// backing arrays when large enough; initTenants fills them.
func (s *denseCore) sizeTenants(n int) {
	s.th = sized(s.th, n)
	s.m = sized(s.m, n)
	s.fs = sized(s.fs, n)
	s.cb = sized(s.cb, n)
}

// sized returns a length-n slice, reusing xs's backing array when it can.
func sized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// Misses returns the internal per-tenant counter m(i, t).
func (s *denseCore) Misses(i trace.Tenant) float64 {
	if int(i) < 0 || int(i) >= len(s.m) {
		return 0
	}
	return s.m[i]
}

// NewFast returns a fresh Fast instance.
func NewFast(opt Options) *Fast {
	f := &Fast{opt: opt}
	f.Reset()
	return f
}

// Name implements sim.Policy.
func (f *Fast) Name() string { return "alg-fast" }

// Reset implements sim.Policy: an empty direct drive.
func (f *Fast) Reset() {
	f.d = nil
	if f.ids == nil {
		f.ids = make(map[trace.PageID]int32)
	} else {
		clear(f.ids)
	}
	f.pages = f.pages[:0]
	f.pr = f.pr[:0]
	f.sizeTenants(0)
	f.initTenants(f.opt, 0)
}

// PrepareDense implements sim.DensePolicy. It (re)initializes the core for
// trace view d, reusing the previous run's slices when they are large enough
// so repeated runs over the same trace allocate nothing new.
func (f *Fast) PrepareDense(d *trace.Dense, k int) bool {
	f.d = d
	f.sizeTenants(d.Tenants)
	f.initTenants(f.opt, k)
	f.pr = sized(f.pr, d.NumPages())
	for p := range f.pr {
		f.pr[p] = pageRec{prev: -1, next: -1, owner: int32(d.Owners[p])}
	}
	return true
}

// StepBatch implements sim.DensePolicy: the core's batched step.
func (f *Fast) StepBatch(base int, pages []int32, bc *sim.BatchCounters, warm bool) error {
	return f.stepBatch(base, pages, bc, warm)
}

// direct readies the instance for a sim.Policy call: the first one after a
// dense replay starts a fresh direct drive.
func (f *Fast) direct() {
	if f.d != nil {
		f.Reset()
	}
}

// ensureTenant grows the per-tenant state to cover tenant i, which a direct
// drive meets on first sight, and re-applies the cursor's arming rule.
func (f *Fast) ensureTenant(i trace.Tenant) error {
	if i < 0 {
		return fmt.Errorf("core: negative tenant %d", i)
	}
	n := len(f.th)
	if int(i) < n {
		return nil
	}
	f.th = append(f.th, make([]tenantHot, int(i)+1-n)...)
	f.m = append(f.m, make([]float64, int(i)+1-n)...)
	f.fs = append(f.fs, make([]costfn.Func, int(i)+1-n)...)
	f.cb = append(f.cb, make([]float64, int(i)+1-n)...)
	for j := n; j <= int(i); j++ {
		f.initTenant(f.opt, trace.Tenant(j))
	}
	f.setCursorRule(f.opt)
	return nil
}

// index returns page p's record index in a direct drive, assigning the next
// one on first sight.
func (f *Fast) index(p trace.PageID) int32 {
	if ix, ok := f.ids[p]; ok {
		return ix
	}
	ix := int32(len(f.pages))
	f.ids[p] = ix
	f.pages = append(f.pages, p)
	f.pr = append(f.pr, pageRec{prev: -1, next: -1, owner: -1})
	return ix
}

// resident returns page p's record index when p is cached.
func (f *Fast) resident(p trace.PageID) (int32, bool) {
	ix := int32(-1)
	if f.d != nil {
		ix = f.d.IndexOf(p)
	} else if j, ok := f.ids[p]; ok {
		ix = j
	}
	if ix < 0 || f.pr[ix].resident == 0 {
		return -1, false
	}
	return ix, true
}

// pageOf maps a record index back to its page id.
func (f *Fast) pageOf(ix int32) trace.PageID {
	if f.d != nil {
		return f.d.Pages[ix]
	}
	return f.pages[ix]
}

// OnHit implements sim.Policy: refresh the page's recency and aging origin.
// A hit on an absent page changes nothing but the sequence counter.
func (f *Fast) OnHit(step int, r trace.Request) {
	f.direct()
	ix, ok := f.resident(r.Page)
	if !ok {
		f.nextSeq++
		return
	}
	f.hit(ix)
}

// OnInsert implements sim.Policy: register the absent page with the current
// marginal as its budget.
func (f *Fast) OnInsert(step int, r trace.Request) {
	f.direct()
	if err := f.ensureTenant(r.Tenant); err != nil {
		panic(err)
	}
	ix := f.index(r.Page)
	f.pr[ix].owner = int32(r.Tenant)
	f.insert(ix)
}

// Victim implements sim.Policy: the minimum-budget page, ties broken by the
// earliest last request.
func (f *Fast) Victim(step int, r trace.Request) trace.PageID {
	f.direct()
	_, ix := f.victim()
	if ix < 0 {
		panic("core: Fast.Victim called with empty cache")
	}
	return f.pages[ix]
}

// OnEvict implements sim.Policy: age every resident page by the victim's
// budget and advance the owner's counter (eviction-count mode). Any resident
// page may be evicted, not only the one Victim nominated; evicting an absent
// page is a no-op.
func (f *Fast) OnEvict(step int, p trace.PageID) {
	f.direct()
	if ix, ok := f.resident(p); ok {
		f.evict(trace.Tenant(f.pr[ix].owner), ix)
	}
}

// Budget exposes a cached page's current effective budget for tests.
func (f *Fast) Budget(p trace.PageID) (float64, bool) {
	ix, ok := f.resident(p)
	if !ok {
		return 0, false
	}
	return f.th[f.pr[ix].owner].marg - (f.aging - f.pr[ix].ageStart), true
}

// victimCursorMinTenants is the auto-arm floor: below this many tenants the
// full victim scan is a handful of compares and the cursor's per-key-event
// bookkeeping costs more than the scans it saves, so the cursor stays
// disarmed unless Options.ForceVictimCursor insists (differential tests).
// Victim selection is identical either way — this is purely a perf switch.
const victimCursorMinTenants = 16

// noteKey maintains the victim cursor across a key-changing event on tenant
// i: a key write, or the tenant's list becoming (non)empty. Call it AFTER
// the tenant's th record reflects the change. Each case either tightens the
// cached (vKey, vSecond) bounds — preserving the strict-argmin invariant —
// or invalidates the cursor, and the next eviction re-arms it with a scan.
// Call sites guard on s.vTen >= 0 so a disarmed cursor costs nothing.
func (s *denseCore) noteKey(i trace.Tenant) {
	v := s.vTen
	if v < 0 {
		return
	}
	t := &s.th[i]
	if int32(i) == v {
		// The champion moved. Still strictly below everyone else's lower
		// bound: track it. At or above the bound (or gone): a tie or a new
		// minimum is possible, rescan.
		if t.tail >= 0 && t.key < s.vSecond {
			s.vKey = t.key
		} else {
			s.vTen = -1
		}
		return
	}
	if t.tail < 0 || t.key >= s.vSecond {
		// An empty list never competes; a key at or above vSecond keeps the
		// bound valid (bounds may only be undercut, never outgrown).
		return
	}
	if t.key > s.vKey {
		s.vSecond = t.key
	} else {
		// At or below the champion's key: new minimum or an exact tie —
		// either way the cursor can no longer certify a unique argmin.
		s.vTen = -1
	}
}

// pushFront links page p at the front of its owner's recency list. It must
// run after p's pageRec age fields are current, so the tailAge mirror picks
// up the fresh aging origin when p becomes the tail of an empty list.
//
// The body is deliberately call-free so it stays within the inline budget
// (a single call node costs most of it): when the push changes the tail —
// exactly when the list was empty — the CALLER must fire the victim-cursor
// hook, `if wasEmpty && s.vTen >= 0 { s.noteKey(i) }`, with wasEmpty
// captured before the call.
func (s *denseCore) pushFront(i trace.Tenant, p int32) {
	t := &s.th[i]
	h := t.head
	s.pr[p].prev = -1
	s.pr[p].next = h
	if h >= 0 {
		s.pr[h].prev = p
		if h == t.tail {
			// Two-element list now: p is the tail's predecessor.
			t.tailPrev = p
		}
	} else {
		t.tail = p
		t.tailAge = s.pr[p].ageStart
		t.key = t.marg + t.tailAge
		t.tailPrev = -1
	}
	t.head = p
}

// unlink removes page p from its owner's recency list, refreshing the
// tailAge/tailPrev mirrors when the tail or its predecessor moves.
//
// Tail next pointers may be stale: popTail retires a tail without clearing
// its predecessor's next link, so a page that is currently the tail must be
// treated as having no successor regardless of what its record says.
//
// Call-free for inlinability, like pushFront: when p was the tail the
// CALLER must fire the victim-cursor hook,
// `if wasTail && s.vTen >= 0 { s.noteKey(i) }`, with wasTail captured
// before the call.
func (s *denseCore) unlink(i trace.Tenant, p int32) {
	t := &s.th[i]
	pr, nx := s.pr[p].prev, s.pr[p].next
	if p == t.tail {
		nx = -1
	}
	if pr >= 0 {
		s.pr[pr].next = nx
	} else {
		t.head = nx
	}
	if nx >= 0 {
		s.pr[nx].prev = pr
		if p == t.tailPrev {
			t.tailPrev = pr
		}
	} else {
		t.tail = pr
		if pr >= 0 {
			t.tailAge = s.pr[pr].ageStart
			t.key = t.marg + t.tailAge
			t.tailPrev = s.pr[pr].prev
		}
	}
	s.pr[p].prev = -1
	s.pr[p].next = -1
}

// popTail is unlink specialized for the eviction path, where the page being
// removed is by construction its owner's tail (the victim scan only ever
// nominates tails). The new tail is the mirrored tailPrev, so the victim's
// cold page record is never read, and the single read of the new tail's
// record refreshes both mirrors — its stale next link is left in place and
// neutralized by unlink's tail guard. Call-free for inlinability: the tail
// always changes here, so the CALLER must fire the victim-cursor hook,
// `if s.vTen >= 0 { s.noteKey(i) }`, after the call.
func (s *denseCore) popTail(i trace.Tenant, p int32) {
	t := &s.th[i]
	nt := t.tailPrev
	t.tail = nt
	if nt >= 0 {
		t.tailAge = s.pr[nt].ageStart
		t.key = t.marg + t.tailAge
		t.tailPrev = s.pr[nt].prev
	} else {
		t.head = -1
	}
}

// hit serves a request for resident page pg: refresh its recency and aging
// origin.
func (s *denseCore) hit(pg int32) {
	s.nextSeq++
	r := &s.pr[pg]
	i := trace.Tenant(r.owner)
	r.ageStart = s.aging
	r.seq = s.nextSeq
	t := &s.th[i]
	if t.head != pg {
		wasTail := t.tail == pg
		s.unlink(i, pg)
		s.pushFront(i, pg)
		// The re-push lands in a list that stayed nonempty, so only the
		// unlink can have moved the tail (and with it the victim key).
		if wasTail && s.vTen >= 0 {
			s.noteKey(i)
		}
	} else if t.tail == pg {
		// Single-page list: the tail's aging origin just moved.
		t.tailAge = s.aging
		t.key = t.marg + s.aging
		if s.vTen >= 0 {
			s.noteKey(i)
		}
	}
}

// insert registers absent page pg, whose owner is already recorded, with the
// current marginal as its budget.
func (s *denseCore) insert(pg int32) {
	s.nextSeq++
	r := &s.pr[pg]
	i := trace.Tenant(r.owner)
	t := &s.th[i]
	if s.countMisses {
		s.m[i]++
		if !t.constMarg {
			t.marg = s.margAt(i)
			// The key tracks the marginal; pushFront refreshes it again if
			// this insert lands in an empty list and moves the tail.
			t.key = t.marg + t.tailAge
			if t.tail >= 0 && s.vTen >= 0 {
				s.noteKey(i)
			}
		}
	}
	r.ageStart = s.aging
	r.seq = s.nextSeq
	r.resident = 1
	wasEmpty := t.head < 0
	s.pushFront(i, pg)
	if wasEmpty && s.vTen >= 0 {
		s.noteKey(i)
	}
	s.used++
}

// evict removes resident page pg, owned by tenant i: age every resident page
// by the victim's budget (a single add to the global aging counter) and
// advance the owner's miss counter in eviction-count mode. pg is usually the
// tail victim nominated, whose aging origin the tenant record mirrors, so
// the victim's cold record is only written; direct drivers may evict any
// resident page.
func (s *denseCore) evict(i trace.Tenant, pg int32) {
	t := &s.th[i]
	tail := pg == t.tail
	age := t.tailAge
	if !tail {
		age = s.pr[pg].ageStart
	}
	s.aging += t.marg - (s.aging - age)
	if !s.countMisses {
		s.m[i]++
		if !t.constMarg {
			t.marg = s.margAt(i)
			t.key = t.marg + t.tailAge
		}
	}
	if tail {
		s.popTail(i, pg)
	} else {
		s.unlink(i, pg)
	}
	if s.vTen >= 0 {
		s.noteKey(i)
	}
	s.pr[pg].resident = 0
	s.used--
}

// victim nominates the eviction victim: the cursor's cached strict argmin
// when valid (no scan, no tie-break — strictness rules ties out), otherwise
// a full scan that re-arms the cursor. Returns (-1, -1) when every tenant
// list is empty.
func (s *denseCore) victim() (trace.Tenant, int32) {
	if s.noCursor {
		return s.victimScanPlain()
	}
	if v := s.vTen; v >= 0 {
		return trace.Tenant(v), s.th[v].tail
	}
	return s.victimScan()
}

// victimScanPlain is the disarmed-cursor scan: the same minimum-key /
// sequence-tie-break selection as victimScan, without the runner-up
// tracking the cursor arming needs — while the cursor is off (few tenants,
// or NoVictimCursor) those extra compares would buy nothing.
func (s *denseCore) victimScanPlain() (trace.Tenant, int32) {
	best := int32(-1)
	bestK := 0.0
	bestSeq := int64(0)
	haveSeq := false
	var bestT trace.Tenant
	for i := range s.th {
		t := &s.th[i]
		p := t.tail
		if p < 0 {
			continue
		}
		k := t.key
		if best < 0 || k < bestK {
			best, bestK, bestT = p, k, trace.Tenant(i)
			haveSeq = false
		} else if k == bestK {
			if !haveSeq {
				bestSeq = s.pr[best].seq
				haveSeq = true
			}
			if s.pr[p].seq < bestSeq {
				best, bestSeq, bestT = p, s.pr[p].seq, trace.Tenant(i)
			}
		}
	}
	return bestT, best
}

// victimScan is the full victim scan: a linear pass over the flat tenant
// array comparing each tenant's least-recently-requested page by the
// precomputed key (see tenantHot) — no map iteration, no Deriv calls, no
// arithmetic, and no dependent load into the page array except on exact key
// ties, where the sequence tie-break is resolved lazily. The scan also
// tracks the runner-up key; when the winner is strictly below it the cursor
// is armed, so the next evictions skip the scan entirely until a key event
// disturbs the order. Returns (-1, -1) when every tenant list is empty.
func (s *denseCore) victimScan() (trace.Tenant, int32) {
	best := int32(-1)
	bestK := 0.0
	// second is the smallest key seen outside the current winner, including
	// exact ties with it; haveSecond gates its first assignment.
	second := 0.0
	haveSecond := false
	bestSeq := int64(0)
	haveSeq := false
	var bestT trace.Tenant
	for i := range s.th {
		t := &s.th[i]
		p := t.tail
		if p < 0 {
			continue
		}
		k := t.key
		if best < 0 {
			best, bestK, bestT = p, k, trace.Tenant(i)
			haveSeq = false
			continue
		}
		if k < bestK {
			second, haveSecond = bestK, true
			best, bestK, bestT = p, k, trace.Tenant(i)
			haveSeq = false
			continue
		}
		if k == bestK {
			// An exact tie: the sequence decides the victim, and the tie
			// itself (second == bestK) blocks the cursor from arming.
			second, haveSecond = k, true
			if !haveSeq {
				bestSeq = s.pr[best].seq
				haveSeq = true
			}
			if s.pr[p].seq < bestSeq {
				best, bestSeq, bestT = p, s.pr[p].seq, trace.Tenant(i)
			}
			continue
		}
		if !haveSecond || k < second {
			second, haveSecond = k, true
		}
	}
	if best >= 0 && !s.noCursor {
		if !haveSecond {
			// Single nonempty tenant: trivially the unique minimum. Any
			// second list becoming nonempty writes a key and noteKey
			// re-examines the cursor, so an unbounded vSecond is safe.
			s.vTen, s.vKey, s.vSecond = int32(bestT), bestK, inf
		} else if bestK < second {
			s.vTen, s.vKey, s.vSecond = int32(bestT), bestK, second
		}
	}
	return bestT, best
}

// stepBatch is the batched request path: the whole hit/miss/evict/insert
// loop for a run of requests, with the per-request bodies inlined so the
// engine pays one interface dispatch per sim.BatchSize requests instead of
// one per event. Residency lives in the pageRec resident flag, so the probe,
// the owner lookup and the insert bookkeeping share one cache line per
// request. The arithmetic and its order are identical to the per-request
// methods, so the two paths stay bit-exact (enforced by the internal/check
// engines oracle, which runs the per-request methods through the map
// engine).
func (s *denseCore) stepBatch(base int, pages []int32, bc *sim.BatchCounters, warm bool) error {
	prs := s.pr
	ths := s.th
	countMisses := s.countMisses
	// aging, nextSeq and used live in locals for the whole batch: none of
	// the helpers below read them, and keeping them out of memory removes a
	// load+store pair from every event's dependency chain.
	aging := s.aging
	nextSeq := s.nextSeq
	used := s.used
	defer func() {
		s.aging = aging
		s.nextSeq = nextSeq
		s.used = used
	}()
	// Prefetch pass: touch every record the batch will probe before serving
	// any request. The loads are independent, so the memory system overlaps
	// them, where the serving loop — whose branches depend on each probe —
	// would take the misses one at a time. This is the batched contract's
	// structural advantage: a per-request caller cannot see the next 63
	// pages. The sink store keeps the compiler from discarding the pass.
	var sink int32
	for _, pg := range pages {
		sink += prs[pg].owner
	}
	s.prefetchSink = sink
	for _, pg := range pages {
		r := &prs[pg]
		i := trace.Tenant(r.owner)
		if r.resident != 0 {
			// Hit: refresh recency and the aging origin.
			nextSeq++
			r.ageStart = aging
			r.seq = nextSeq
			if ths[i].head != pg {
				wasTail := ths[i].tail == pg
				s.unlink(i, pg)
				s.pushFront(i, pg)
				if wasTail && s.vTen >= 0 {
					s.noteKey(i)
				}
			} else if ths[i].tail == pg {
				// Single-page list: the tail's aging origin just moved.
				ths[i].tailAge = aging
				ths[i].key = ths[i].marg + aging
				if s.vTen >= 0 {
					s.noteKey(i)
				}
			}
			if !warm {
				bc.Hits++
			}
			continue
		}
		if !warm {
			bc.Misses[i]++
		}
		if used >= s.k {
			// Victim: the cursor's cached argmin when valid, the full scan
			// (which re-arms the cursor) otherwise; comparison and selection
			// order are identical to the per-request path. Comparing
			// precomputed keys keeps the scan off the aging chain: the FP
			// adds of consecutive evictions pipeline across iterations
			// instead of serializing through the next scan.
			vo, best := s.victim()
			if best < 0 {
				return fmt.Errorf("core: alg-fast found no victim at step %d", base)
			}
			// Evict: age everyone by the victim's budget — the victim is its
			// owner's tail, so tailAge is its ageStart and the whole update
			// stays inside the tenantHot line — then advance the owner's
			// counter in eviction-count mode, unlink, and mark it absent.
			aging += ths[vo].marg - (aging - ths[vo].tailAge)
			if !countMisses {
				s.m[vo]++
				if !ths[vo].constMarg {
					ths[vo].marg = s.margAt(vo)
				}
			}
			s.popTail(vo, best)
			if s.vTen >= 0 {
				s.noteKey(vo)
			}
			prs[best].resident = 0
			if !warm {
				bc.Evictions[vo]++
			}
		} else {
			used++
		}
		// Insert: register the page with the current marginal as its budget.
		nextSeq++
		if countMisses {
			s.m[i]++
			if !ths[i].constMarg {
				ths[i].marg = s.margAt(i)
				ths[i].key = ths[i].marg + ths[i].tailAge
				if ths[i].tail >= 0 {
					if s.vTen >= 0 {
						s.noteKey(i)
					}
				}
			}
		}
		r.ageStart = aging
		r.seq = nextSeq
		r.resident = 1
		wasEmpty := ths[i].head < 0
		s.pushFront(i, pg)
		if wasEmpty && s.vTen >= 0 {
			s.noteKey(i)
		}
	}
	return nil
}
