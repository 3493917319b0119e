// Package mrclive maintains streaming per-tenant miss-ratio curves over a
// sliding window of live requests. It fuses the repo's offline MRC machinery
// into an always-on estimator cheap enough for the request path:
//
//   - SHARDS spatial sampling (Waldspurger et al., FAST 2015): only pages
//     passing analysis.SampleFilter are tracked, so the per-request work is
//     O(1) expected and the stack holds ~rate·WSS entries. The filter is the
//     exact hash/threshold used by analysis.ApproxMattson, so a live sampler
//     and an offline pass with the same seed sample the same pages.
//   - An incremental Mattson stack per tenant: a Fenwick tree over an
//     append-cursor slot array yields the reuse stack distance of every
//     sampled access in O(log n), the same quantity analysis.Mattson
//     computes offline. Pages are found through one record array indexed
//     by p / Scale, the page's slot in its shard's dense id space.
//   - Epoch-bucketed decay: hit histograms are bucketed into a ring of
//     WindowEpochs epochs; advancing the ring expires pages (and their
//     histogram mass) untouched for a full window, so the curve tracks
//     phase shifts instead of averaging over all history. Slot order is
//     last-access order, so the expired pages are a prefix of each stack.
//
// A Sampler is single-owner by design — internal/cached gives one to each
// shard goroutine, which calls Observe inline with no locks; a collector
// merges per-shard Snapshots into per-tenant TenantCurves on demand. The
// cache-shard partition itself acts as a second spatial sampling layer:
// tenant pages spread ~uniformly over n shards, so a shard-local stack
// distance estimates 1/n of the true distance and is rescaled by Scale = n
// at bucketing time. With one shard and Rate 1 the estimator degenerates to
// exact incremental Mattson, which the tests pin bit-for-bit against the
// offline analysis.
package mrclive

import (
	"errors"
	"fmt"
	"math"

	"convexcache/internal/analysis"
	"convexcache/internal/trace"
)

// Config sizes a Sampler.
type Config struct {
	// Tenants is the tenant universe size.
	Tenants int
	// MaxSize is the largest tracked capacity in pages; curves report hit
	// counts at capacities 1..MaxSize. <= 0 selects 256.
	MaxSize int
	// Rate is the SHARDS sampling rate in (0, 1]; 0 selects 1.0 (track
	// every page).
	Rate float64
	// Seed perturbs the sampling hash; all shards of one service must share
	// it so they sample one consistent page population.
	Seed uint64
	// WindowEpochs is the sliding-window length in epochs (the current
	// partial epoch plus WindowEpochs-1 complete ones). <= 0 selects 8.
	WindowEpochs int
	// EpochRequests advances the epoch ring every that many observed
	// requests — deterministic in the request stream, independent of wall
	// clock. <= 0 selects 4096; at most math.MaxInt32.
	EpochRequests int
	// Scale multiplies measured stack distances: the shard count when each
	// sampler sees only a 1/Scale page partition. <= 0 selects 1. Page ids
	// must be dense in p / Scale (see Sampler.Observe).
	Scale int
}

// normalize applies defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Tenants <= 0 {
		return c, errors.New("mrclive: tenant count must be positive")
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 256
	}
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.Rate < 0 || c.Rate > 1 {
		return c, fmt.Errorf("mrclive: sampling rate %g outside (0, 1]", c.Rate)
	}
	if c.WindowEpochs <= 0 {
		c.WindowEpochs = 8
	}
	if c.EpochRequests <= 0 {
		c.EpochRequests = 4096
	}
	if c.EpochRequests > math.MaxInt32 {
		return c, fmt.Errorf("mrclive: epoch length %d exceeds %d requests", c.EpochRequests, math.MaxInt32)
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c, nil
}

// tenantStack is one tenant's incremental Mattson stack: pages occupy slots
// in access order behind a write cursor, a Fenwick tree counts live slots,
// and the reuse distance of an access is the number of live slots after the
// page's previous position. Because slot order is last-access order, the
// pages last touched in one epoch fill the live slots between that epoch's
// mark and the next one's. Compaction (triggered when the cursor reaches the
// end) packs live pages in slot order, in place, remaps the marks, and
// doubles capacity while more than half the slots are live.
type tenantStack struct {
	fen fenwick
	// slots holds the record index (page / Scale) of each slot's page, or
	// freeSlot.
	slots  []int32
	cursor int
	live   int
	// marks[e % WindowEpochs] is the slot where epoch e's accesses began,
	// for the epochs in the window.
	marks []int
}

const freeSlot = int32(-1)

func newTenantStack(windowEpochs int) tenantStack {
	const initialCap = 256
	st := tenantStack{
		fen:   make(fenwick, initialCap+1),
		slots: make([]int32, initialCap),
		marks: make([]int, windowEpochs),
	}
	for i := range st.slots {
		st.slots[i] = freeSlot
	}
	return st
}

// Sampler is one shard's streaming MRC estimator. It is deliberately NOT
// safe for concurrent use: internal/cached embeds one per single-writer
// shard goroutine, keeping the hit path lock-free; merge concurrency lives
// entirely in the collector.
type Sampler struct {
	cfg    Config
	filter analysis.SampleFilter
	stacks []tenantStack
	// refs[p/Scale] is page p's slot in its tenant's stack plus one, or 0
	// while the page is not tracked. A page has exactly one tenant, so one
	// table serves every stack.
	refs []int32

	// Ring of WindowEpochs epochs; slot e%W holds epoch e's buckets. A
	// bucket counts at most EpochRequests, which normalize bounds to int32.
	hist     [][]int32 // [W][Tenants*MaxSize] sampled hits by scaled distance
	observed [][]int64 // [W][Tenants] all observed requests (exact)
	sampled  [][]int64 // [W][Tenants] sampled requests

	absEpoch   int64
	reqInEpoch int
}

// NewSampler validates the config and builds a sampler.
func NewSampler(cfg Config) (*Sampler, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	filter, err := analysis.NewSampleFilter(cfg.Rate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Sampler{
		cfg:      cfg,
		filter:   filter,
		stacks:   make([]tenantStack, cfg.Tenants),
		hist:     make([][]int32, cfg.WindowEpochs),
		observed: make([][]int64, cfg.WindowEpochs),
		sampled:  make([][]int64, cfg.WindowEpochs),
	}
	for t := range s.stacks {
		s.stacks[t] = newTenantStack(cfg.WindowEpochs)
	}
	for e := 0; e < cfg.WindowEpochs; e++ {
		s.hist[e] = make([]int32, cfg.Tenants*cfg.MaxSize)
		s.observed[e] = make([]int64, cfg.Tenants)
		s.sampled[e] = make([]int64, cfg.Tenants)
	}
	return s, nil
}

// Config returns the normalized configuration.
func (s *Sampler) Config() Config { return s.cfg }

// Observe records one request. Called inline on the owner's request path.
// Page ids must be non-negative and dense in p / Scale, the way
// core.LRUTable requires of its residue class: the sampler keeps one record
// per p / Scale up to the largest seen. Each page id belongs to one tenant.
// internal/cached meets this: shard s of n interns its pages as s + j·n and
// runs its sampler at Scale n.
func (s *Sampler) Observe(t trace.Tenant, p trace.PageID) {
	if t < 0 || int(t) >= s.cfg.Tenants || p < 0 {
		return
	}
	cur := int(s.absEpoch % int64(s.cfg.WindowEpochs))
	s.observed[cur][t]++
	s.reqInEpoch++
	if s.filter.Keep(p) {
		s.sampled[cur][t]++
		if dist := s.access(&s.stacks[t], int(p/trace.PageID(s.cfg.Scale))); dist >= 0 {
			// Each sampled resident page stands for Scale/Rate true pages:
			// 1/Rate from hash sampling, Scale from the shard partition.
			scaled := int(float64(dist) * float64(s.cfg.Scale) / s.cfg.Rate)
			if scaled < s.cfg.MaxSize {
				s.hist[cur][int(t)*s.cfg.MaxSize+scaled]++
			}
		}
	}
	if s.reqInEpoch >= s.cfg.EpochRequests {
		s.advance()
	}
}

// access records one sampled access to the page with record index ix and
// returns its reuse stack distance (distinct sampled pages since the
// previous access), or -1 on first touch.
func (s *Sampler) access(st *tenantStack, ix int) int {
	if ix >= len(s.refs) {
		s.refs = append(s.refs, make([]int32, ix+1-len(s.refs))...)
	}
	dist := -1
	if ref := s.refs[ix]; ref != 0 {
		slot := int(ref - 1)
		dist = st.live - st.fen.prefix(slot)
		st.fen.add(slot, -1)
		st.slots[slot] = freeSlot
		st.live--
	}
	if st.cursor == len(st.slots) {
		s.compact(st)
	}
	st.fen.add(st.cursor, 1)
	st.slots[st.cursor] = int32(ix)
	s.refs[ix] = int32(st.cursor + 1)
	st.cursor++
	st.live++
	return dist
}

// compact packs the live pages at the front in slot (= LRU) order, in
// place, growing the arrays while more than half the slots are live. Each
// mark moves to the number of live slots before it, which keeps it between
// the same pages.
func (s *Sampler) compact(st *tenantStack) {
	for e, m := range st.marks {
		if m > 0 {
			st.marks[e] = st.fen.prefix(m - 1)
		}
	}
	n := 0
	for _, ix := range st.slots {
		if ix != freeSlot {
			st.slots[n] = ix
			s.refs[ix] = int32(n + 1)
			n++
		}
	}
	if st.live*2 > len(st.slots) {
		grown := make([]int32, 2*len(st.slots))
		copy(grown, st.slots[:n])
		st.slots = grown
		st.fen = make(fenwick, len(grown)+1)
	}
	for i := n; i < len(st.slots); i++ {
		st.slots[i] = freeSlot
	}
	st.fen.fill(n)
	st.cursor = n
}

// advance rotates the epoch ring: the slot about to be reused holds the
// epoch that just fell out of the window, so its histogram mass is zeroed
// and every page whose last touch was in that epoch is expired from its
// stack. Those pages are the live slots from the expiring epoch's mark to
// the next epoch's: pages touched again since sit after both marks.
func (s *Sampler) advance() {
	s.absEpoch++
	s.reqInEpoch = 0
	W := s.cfg.WindowEpochs
	slot := int(s.absEpoch % int64(W))
	for t := range s.stacks {
		st := &s.stacks[t]
		from := st.marks[slot]
		// Mark the new epoch before reading the next one's: with a one-epoch
		// window they are the same, and every page expires.
		st.marks[slot] = st.cursor
		for i, to := from, st.marks[(slot+1)%W]; i < to; i++ {
			if ix := st.slots[i]; ix != freeSlot {
				st.slots[i] = freeSlot
				s.refs[ix] = 0
				st.fen.add(i, -1)
				st.live--
			}
		}
	}
	clear(s.hist[slot])
	clear(s.observed[slot])
	clear(s.sampled[slot])
}

// TenantWindow is one tenant's window accounting from one sampler.
type TenantWindow struct {
	// Observed counts all window requests of the tenant at this sampler —
	// exact, not sampled.
	Observed int64
	// Sampled counts the requests that passed the SHARDS filter.
	Sampled int64
	// Hist[d] counts sampled reuses at scaled stack distance d.
	Hist []int64
}

// Snapshot sums the epoch ring into per-tenant window accounting. Call from
// the goroutine that owns the sampler (internal/cached does so via a shard
// mailbox message, putting the snapshot on a batch boundary).
func (s *Sampler) Snapshot() []TenantWindow {
	out := make([]TenantWindow, s.cfg.Tenants)
	for t := range out {
		out[t].Hist = make([]int64, s.cfg.MaxSize)
	}
	for e := 0; e < s.cfg.WindowEpochs; e++ {
		for t := 0; t < s.cfg.Tenants; t++ {
			out[t].Observed += s.observed[e][t]
			out[t].Sampled += s.sampled[e][t]
			h := s.hist[e][t*s.cfg.MaxSize : (t+1)*s.cfg.MaxSize]
			for d, v := range h {
				if v != 0 {
					out[t].Hist[d] += int64(v)
				}
			}
		}
	}
	return out
}

// TenantCurve is a merged per-tenant window miss-ratio curve.
type TenantCurve struct {
	// Tenant is the tenant id.
	Tenant int `json:"tenant"`
	// Requests counts the tenant's window requests across all shards
	// (exact: every request is observed by exactly one shard).
	Requests int64 `json:"requests"`
	// Sampled counts window requests that passed the SHARDS filter.
	Sampled int64 `json:"sampled"`
	// Rate echoes the sampling rate the curve was rescaled by.
	Rate float64 `json:"rate"`
	// HitsAt[c] estimates window hits at capacity c+1 pages: integer
	// sampled counts rescaled once by 1/Rate and clamped to Requests
	// (mirroring analysis.ApproxMattson's accumulation).
	HitsAt []float64 `json:"hits_at"`
}

// MissesAt predicts the tenant's window misses at capacity q pages; the
// curve is non-increasing in q and flat beyond MaxSize.
func (c TenantCurve) MissesAt(q int) float64 {
	if q < 1 || len(c.HitsAt) == 0 {
		return float64(c.Requests)
	}
	if q > len(c.HitsAt) {
		q = len(c.HitsAt)
	}
	m := float64(c.Requests) - c.HitsAt[q-1]
	if m < 0 {
		return 0
	}
	return m
}

// MissRatioAt is MissesAt normalized by window requests (0 when idle).
func (c TenantCurve) MissRatioAt(q int) float64 {
	if c.Requests == 0 {
		return 0
	}
	return c.MissesAt(q) / float64(c.Requests)
}

// Merge combines per-shard sampler snapshots into per-tenant curves:
// integer counts sum across shards (each request and each sampled reuse is
// counted by exactly one shard), then one 1/rate rescale with a clamp at
// the exact observed request count.
//
// scale is the distance rescaling factor the samplers applied (the shard
// count); together with rate it fixes the estimator's distance resolution
// g = ceil(scale/rate): a sampled reuse bucketed at scaled distance d only
// locates the true distance inside [d, d+g). Its hit mass therefore ramps
// linearly over capacities (d, d+g] instead of landing as a step at d+1 —
// without the ramp every capacity off the g-grid would show a zero
// marginal hit gain, an artifact a greedy capacity planner reads as "no
// use for one more page". At g = 1 the ramp degenerates to the exact step
// function, keeping the one-shard full-rate curve bit-identical to
// incremental Mattson.
func Merge(snaps [][]TenantWindow, tenants, maxSize int, rate float64, scale int) []TenantCurve {
	if rate <= 0 {
		rate = 1
	}
	if scale < 1 {
		scale = 1
	}
	g := int(math.Ceil(float64(scale)/rate - 1e-9))
	if g < 1 {
		g = 1
	}
	out := make([]TenantCurve, tenants)
	for t := range out {
		out[t] = TenantCurve{Tenant: t, Rate: rate, HitsAt: make([]float64, maxSize)}
		hist := make([]int64, maxSize)
		for _, snap := range snaps {
			if t >= len(snap) {
				continue
			}
			out[t].Requests += snap[t].Observed
			out[t].Sampled += snap[t].Sampled
			for d, v := range snap[t].Hist {
				if d < maxSize {
					hist[d] += v
				}
			}
		}
		// Difference array over per-capacity slopes: bucket d spreads
		// hist[d]/g per capacity across HitsAt indices [d, d+g-1]; two
		// prefix passes turn slopes into the cumulative hit curve.
		slope := make([]float64, maxSize+1)
		for d, v := range hist {
			if v == 0 {
				continue
			}
			m := float64(v) / float64(g)
			slope[d] += m
			if d+g <= maxSize {
				slope[d+g] -= m
			}
		}
		run := 0.0
		cum := 0.0
		for c := 0; c < maxSize; c++ {
			run += slope[c]
			cum += run
			est := cum / rate
			if est > float64(out[t].Requests) {
				est = float64(out[t].Requests)
			}
			out[t].HitsAt[c] = est
		}
	}
	return out
}

// fenwick is a binary indexed tree over slot occupancy.
type fenwick []int32

func (f fenwick) add(i int, delta int32) {
	for i++; i < len(f); i += i & (-i) {
		f[i] += delta
	}
}

// prefix sums occupancy over slots [0, i].
func (f fenwick) prefix(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += int(f[i])
	}
	return s
}

// fill sets the tree to slots [0, n) occupied and the rest free, in one
// pass: node i covers slots [i−lowbit(i), i).
func (f fenwick) fill(n int) {
	for i := 1; i < len(f); i++ {
		f[i] = int32(max(0, min(i, n)-(i-i&(-i))))
	}
}
