package mrclive

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"convexcache/internal/analysis"
	"convexcache/internal/trace"
)

// refSampler is a naive, independent model of Sampler: per tenant an
// explicit recency list of the live sampled pages (most recent first) with
// each page's last-touch epoch. A reuse's distance is the page's position
// in its list; advancing the epoch drops every page whose last touch fell
// out of the window. Per epoch it keeps the raw scaled distances, and
// snapshot counts them. It shares nothing with Sampler but the config, the
// sampling filter and the distance rescaling rule.
type refSampler struct {
	cfg     Config
	filter  analysis.SampleFilter
	lists   [][]refPage
	ring    [][]refEpoch // [WindowEpochs][Tenants]
	abs     int64
	inEpoch int
}

type refPage struct {
	p     trace.PageID
	epoch int64
}

type refEpoch struct {
	observed, sampled int64
	dists             []int
}

func newRefSampler(t testing.TB, cfg Config) *refSampler {
	t.Helper()
	filter, err := analysis.NewSampleFilter(cfg.Rate, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r := &refSampler{cfg: cfg, filter: filter, lists: make([][]refPage, cfg.Tenants), ring: make([][]refEpoch, cfg.WindowEpochs)}
	for e := range r.ring {
		r.ring[e] = make([]refEpoch, cfg.Tenants)
	}
	return r
}

func (r *refSampler) observe(t trace.Tenant, p trace.PageID) {
	if t < 0 || int(t) >= r.cfg.Tenants || p < 0 {
		return
	}
	e := &r.ring[r.abs%int64(r.cfg.WindowEpochs)][t]
	e.observed++
	r.inEpoch++
	if r.filter.Keep(p) {
		e.sampled++
		list := r.lists[t]
		for i, pg := range list {
			if pg.p != p {
				continue
			}
			if scaled := int(float64(i) * float64(r.cfg.Scale) / r.cfg.Rate); scaled < r.cfg.MaxSize {
				e.dists = append(e.dists, scaled)
			}
			list = append(list[:i], list[i+1:]...)
			break
		}
		r.lists[t] = append([]refPage{{p: p, epoch: r.abs}}, list...)
	}
	if r.inEpoch >= r.cfg.EpochRequests {
		r.abs++
		r.inEpoch = 0
		oldest := r.abs - int64(r.cfg.WindowEpochs) + 1
		for tn, list := range r.lists {
			kept := list[:0]
			for _, pg := range list {
				if pg.epoch >= oldest {
					kept = append(kept, pg)
				}
			}
			r.lists[tn] = kept
		}
		r.ring[r.abs%int64(r.cfg.WindowEpochs)] = make([]refEpoch, r.cfg.Tenants)
	}
}

func (r *refSampler) snapshot() []TenantWindow {
	out := make([]TenantWindow, r.cfg.Tenants)
	for t := range out {
		out[t].Hist = make([]int64, r.cfg.MaxSize)
		for _, epoch := range r.ring {
			e := epoch[t]
			out[t].Observed += e.observed
			out[t].Sampled += e.sampled
			for _, d := range e.dists {
				out[t].Hist[d]++
			}
		}
	}
	return out
}

// sameWindows reports the first difference between two snapshots.
func sameWindows(got, want []TenantWindow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tenants, want %d", len(got), len(want))
	}
	for t := range want {
		g, w := got[t], want[t]
		if g.Observed != w.Observed || g.Sampled != w.Sampled {
			return fmt.Errorf("tenant %d: observed/sampled %d/%d, want %d/%d", t, g.Observed, g.Sampled, w.Observed, w.Sampled)
		}
		if len(g.Hist) != len(w.Hist) {
			return fmt.Errorf("tenant %d: %d buckets, want %d", t, len(g.Hist), len(w.Hist))
		}
		for d := range w.Hist {
			if g.Hist[d] != w.Hist[d] {
				return fmt.Errorf("tenant %d: Hist[%d] = %d, want %d", t, d, g.Hist[d], w.Hist[d])
			}
		}
	}
	return nil
}

// denseIDs renames pages the way the cached shard interner assigns them:
// page p, routed to class s = p mod n, becomes s + j·n, where j counts the
// distinct pages of class s seen before it. The renaming is injective and
// keeps each page's class, so routing and stack distances are unchanged.
type denseIDs struct {
	n    int
	ids  map[trace.PageID]trace.PageID
	next []int64
}

func newDenseIDs(n int) *denseIDs {
	return &denseIDs{n: n, ids: make(map[trace.PageID]trace.PageID), next: make([]int64, n)}
}

func (d *denseIDs) id(p trace.PageID) trace.PageID {
	if id, ok := d.ids[p]; ok {
		return id
	}
	s := int64(uint64(p) % uint64(d.n))
	id := trace.PageID(s + d.next[s]*int64(d.n))
	d.next[s]++
	d.ids[p] = id
	return id
}

// renamed returns tr's requests with dense ids per residue class mod n.
func renamed(tr *trace.Trace, n int) []trace.Request {
	d := newDenseIDs(n)
	out := make([]trace.Request, tr.Len())
	for i, r := range tr.Requests() {
		out[i] = trace.Request{Tenant: r.Tenant, Page: d.id(r.Page)}
	}
	return out
}

// shardedPair is n samplers, one per residue class as the cached shards own
// pages, each beside its reference model.
type shardedPair struct {
	ids  *denseIDs
	smp  []*Sampler
	refs []*refSampler
}

func newShardedPair(t testing.TB, cfg Config) *shardedPair {
	t.Helper()
	sp := &shardedPair{ids: newDenseIDs(cfg.Scale)}
	for i := 0; i < cfg.Scale; i++ {
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp.smp = append(sp.smp, s)
		sp.refs = append(sp.refs, newRefSampler(t, s.Config()))
	}
	return sp
}

// observe routes one request with an original page id (tenant-disjoint,
// non-negative) to its shard under the dense renaming.
func (sp *shardedPair) observe(t trace.Tenant, p trace.PageID) {
	id := sp.ids.id(p)
	s := int(id) % len(sp.smp)
	sp.smp[s].Observe(t, id)
	sp.refs[s].observe(t, id)
}

func (sp *shardedPair) check(t testing.TB, at int) {
	t.Helper()
	for s := range sp.smp {
		if err := sameWindows(sp.smp[s].Snapshot(), sp.refs[s].snapshot()); err != nil {
			t.Fatalf("after %d requests, shard %d: %v", at, s, err)
		}
	}
}

// The config values both comparisons draw from.
var (
	refScales    = []int{1, 2, 4}
	refRates     = []float64{1, 0.5, 0.1}
	refEpochReqs = []int{1, 7, 4096}
	refMaxSizes  = []int{16, 4096}
)

// TestSamplerMatchesReference compares the sampler's snapshots with the
// naive reference on seeded multi-tenant dense-id streams, across every
// scale, rate, window length, epoch length and histogram size the tests
// care about. Each stream shifts its working sets twice, so pages expire
// mid-run, and its hot sets are small, so slot arrays compact often.
func TestSamplerMatchesReference(t *testing.T) {
	const length, checkEvery = 12000, 3000
	for i := 0; i < 48; i++ {
		cfg := Config{
			Tenants:       1 + (i/4)%3,
			Scale:         refScales[i%3],
			Rate:          refRates[(i/3)%3],
			WindowEpochs:  1 + i%8,
			EpochRequests: refEpochReqs[(i/9)%3],
			MaxSize:       refMaxSizes[(i/24)%2],
			Seed:          uint64(i),
		}
		t.Run(fmt.Sprintf("%d/tenants=%d/scale=%d/rate=%g/W=%d/E=%d/max=%d", i, cfg.Tenants, cfg.Scale, cfg.Rate, cfg.WindowEpochs, cfg.EpochRequests, cfg.MaxSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			universe := make([]int, cfg.Tenants)
			for tn := range universe {
				universe[tn] = []int{12, 150, 900}[rng.Intn(3)]
			}
			sp := newShardedPair(t, cfg)
			for n := 1; n <= length; n++ {
				tn := rng.Intn(cfg.Tenants)
				u := universe[tn]
				off := rng.Intn(u)
				if rng.Intn(10) < 6 {
					off = rng.Intn(u/8 + 1)
				}
				phase := 3 * n / length
				sp.observe(trace.Tenant(tn), trace.PageID(tn<<20+phase*u/2+off))
				if n%checkEvery == 0 {
					sp.check(t, n)
				}
			}
		})
	}
}

// FuzzSamplerMatchesReference drives the sampler and the reference with a
// fuzzer-chosen config and access stream: every two bytes of data are one
// request (tenant in the low two bits, tenant 3 out of range; page above),
// and the stream replays reps times so that it reuses pages.
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), []byte("\x00\x01\x04\x01\x00\x01\x08\x02\x04\x01"))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), uint8(2), []byte("abcdefghijabcdefghij0123456789"))
	f.Add(uint8(2), uint8(2), uint8(7), uint8(2), uint8(0), uint8(1), []byte("\xff\xff\x00\x00\x10\x20\x30\x40\x10\x20\x30\x40"))
	f.Add(uint8(1), uint8(0), uint8(3), uint8(1), uint8(1), uint8(7), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, scale, rate, window, epoch, maxSize, reps uint8, data []byte) {
		cfg := Config{
			Tenants:       3,
			Scale:         refScales[int(scale)%len(refScales)],
			Rate:          refRates[int(rate)%len(refRates)],
			WindowEpochs:  1 + int(window)%8,
			EpochRequests: refEpochReqs[int(epoch)%len(refEpochReqs)],
			MaxSize:       refMaxSizes[int(maxSize)%len(refMaxSizes)],
			Seed:          uint64(reps),
		}
		if epoch >= 128 {
			// Let the fuzzer pick other short epochs too.
			cfg.EpochRequests = 1 + int(epoch)%32
		}
		sp := newShardedPair(t, cfg)
		n := 0
		for r := 0; r < 1+int(reps)%8; r++ {
			for i := 0; i+1 < len(data); i += 2 {
				v := binary.LittleEndian.Uint16(data[i:])
				tn := trace.Tenant(v & 3)
				if tn == 3 {
					// Out-of-range tenants are ignored, before any counting.
					sp.smp[0].Observe(tn, trace.PageID(v>>2))
					sp.refs[0].observe(tn, trace.PageID(v>>2))
					continue
				}
				sp.observe(tn, trace.PageID(int64(tn)<<16|int64(v>>2)))
				n++
			}
			sp.check(t, n)
		}
	})
}
