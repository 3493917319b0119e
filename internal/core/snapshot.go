package core

import "convexcache/internal/trace"

// FastSnapshot is the algorithm's state at one point of a run: the aging
// offset, the per-tenant counters, and every resident page's recency and
// aging origin. The engines oracle (internal/check) compares the final
// snapshots of a dense and a map-engine run of the same trace.
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
// not state, and are not captured.
func (f *Fast) Snapshot() FastSnapshot { return f.snapshot(f.pageOf) }

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
