package core

import (
	"encoding/json"
	"fmt"
	"io"

	"convexcache/internal/trace"
)

// FastSnapshot is a serializable checkpoint of a Fast instance: everything
// needed to resume the algorithm after a process restart with warm cache
// state (the cache *contents* are the engine's; the snapshot captures the
// policy's bookkeeping for them).
type FastSnapshot struct {
	// Aging is the global offset A.
	Aging float64 `json:"aging"`
	// Misses holds the per-tenant counter m(i).
	Misses map[trace.Tenant]float64 `json:"misses"`
	// Pages lists the resident pages in per-tenant recency order (most
	// recent first), preserving victim selection exactly.
	Pages []PageSnapshot `json:"pages"`
	// NextSeq is the tie-break counter.
	NextSeq int `json:"next_seq"`
}

// PageSnapshot is one resident page's policy state.
type PageSnapshot struct {
	// Page is the page id.
	Page trace.PageID `json:"page"`
	// Owner is the owning tenant.
	Owner trace.Tenant `json:"owner"`
	// AgeStart is the aging offset at the page's last request.
	AgeStart float64 `json:"age_start"`
	// Seq is the last-request sequence number.
	Seq int `json:"seq"`
}

// Snapshot captures the current state. Cost functions are configuration,
// not state, and are not serialized; Restore must be called on an instance
// built with equivalent Options.
func (f *Fast) Snapshot() FastSnapshot { return f.snapshot(f.pageOf) }

// Restore replaces the instance's state with the snapshot and leaves it
// ready for a direct drive.
func (f *Fast) Restore(s FastSnapshot) error {
	f.Reset()
	return f.restore(s, f.ensureTenant, func(p trace.PageID) (int32, error) { return f.index(p), nil })
}

// snapshot walks the core into the FastSnapshot format: per-tenant
// most-recent-first page lists in ascending tenant order, with record
// indices mapped back to page ids by pageOf — the one difference between
// Fast's and Open's images.
func (s *denseCore) snapshot(pageOf func(int32) trace.PageID) FastSnapshot {
	snap := FastSnapshot{
		Aging:   s.aging,
		Misses:  make(map[trace.Tenant]float64, len(s.m)),
		NextSeq: int(s.nextSeq),
	}
	for i, m := range s.m {
		if m != 0 {
			snap.Misses[trace.Tenant(i)] = m
		}
	}
	for i := range s.th {
		// Stop at the recorded tail, not at a -1 next link: popTail retires
		// tails without rewriting the new tail's next pointer, so the last
		// resident record's next may point at an evicted page.
		for p := s.th[i].head; p >= 0; {
			snap.Pages = append(snap.Pages, PageSnapshot{
				Page:     pageOf(p),
				Owner:    trace.Tenant(i),
				AgeStart: s.pr[p].ageStart,
				Seq:      int(s.pr[p].seq),
			})
			if p == s.th[i].tail {
				break
			}
			p = s.pr[p].next
		}
	}
	return snap
}

// restore loads snapshot snap into the freshly reset core. tenant readies
// (or rejects) a tenant's state and slot returns a page's record index: Fast
// grows both on first sight, Open validates them against its fixed tenant
// universe and residue class. The per-tenant miss counters fully determine
// every marginal (marg is a pure function of m(i)), so marginals are
// recomputed rather than serialized and the restored state is bit-identical
// to the snapshotted one.
func (s *denseCore) restore(snap FastSnapshot, tenant func(trace.Tenant) error, slot func(trace.PageID) (int32, error)) error {
	s.aging = snap.Aging
	s.nextSeq = int64(snap.NextSeq)
	for i, m := range snap.Misses {
		if err := tenant(i); err != nil {
			return err
		}
		s.m[i] = m
		s.th[i].marg = s.margAt(i)
		s.th[i].key = s.th[i].marg // tailAge is zero until a page lands
	}
	// Pages arrive most-recent-first per tenant; pushBack preserves order.
	for _, ps := range snap.Pages {
		if err := tenant(ps.Owner); err != nil {
			return err
		}
		ix, err := slot(ps.Page)
		if err != nil {
			return err
		}
		r := &s.pr[ix]
		if r.resident != 0 {
			return fmt.Errorf("core: snapshot lists page %d twice", ps.Page)
		}
		r.owner = int32(ps.Owner)
		r.ageStart = ps.AgeStart
		r.seq = int64(ps.Seq)
		r.resident = 1
		s.pushBack(ps.Owner, ix)
		s.used++
	}
	return nil
}

// WriteSnapshot serializes the checkpoint as JSON.
func (f *Fast) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(f.Snapshot())
}

// ReadSnapshot restores the checkpoint from JSON.
func (f *Fast) ReadSnapshot(r io.Reader) error {
	var s FastSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	return f.Restore(s)
}

// ResidentPages returns the snapshot's pages as a set, for reseeding the
// engine-side cache contents after a restart.
func (s FastSnapshot) ResidentPages() map[trace.PageID]trace.Tenant {
	out := make(map[trace.PageID]trace.Tenant, len(s.Pages))
	for _, p := range s.Pages {
		out[p.Page] = p.Owner
	}
	return out
}
