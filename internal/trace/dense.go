package trace

// Dense is the compacted view of a trace used by the allocation-free
// simulation engine: page IDs are remapped to dense ints in [0, P) so that
// ownership, residency and per-page policy state all live in flat slices
// instead of hash maps. The remap is computed once per trace and cached on
// the Trace, so repeated runs (sweeps, benchmarks, experiment tables) pay
// for it only once.
//
// A caller may also build a Dense directly (sim.RunDense replays one); on
// such a view IndexOf returns -1 for every page, and no replay path reads it.
type Dense struct {
	// Pages maps dense index -> original PageID, in first-appearance order.
	Pages []PageID
	// Owners maps dense index -> owning tenant; the slice-backed owner
	// table replacing Trace's owner map on the hot path.
	Owners []Tenant
	// Reqs is the request sequence with pages replaced by dense indices;
	// Reqs[t] is the dense index of the page requested at step t.
	Reqs []int32
	// Tenants is n = |U|, copied from the trace.
	Tenants int

	index map[PageID]int32
}

// NumPages returns |P|.
func (d *Dense) NumPages() int { return len(d.Pages) }

// Len returns T.
func (d *Dense) Len() int { return len(d.Reqs) }

// IndexOf returns the dense index of page p, or -1 if p does not appear in
// the trace.
func (d *Dense) IndexOf(p PageID) int32 {
	if ix, ok := d.index[p]; ok {
		return ix
	}
	return -1
}

// Dense returns the compacted remap of the trace, computing it on first use
// and caching it for subsequent calls. Safe for concurrent use: racing first
// callers may build the remap redundantly, but the compare-and-swap ensures
// every caller — including the losers of the race — returns the one pointer
// that won, so slices handed out by Dense can be compared by identity.
func (t *Trace) Dense() *Dense {
	if d := t.dense.Load(); d != nil {
		return d
	}
	d := buildDense(t)
	if t.dense.CompareAndSwap(nil, d) {
		return d
	}
	return t.dense.Load()
}

func buildDense(t *Trace) *Dense {
	d := &Dense{
		Pages:   make([]PageID, 0, len(t.owner)),
		Owners:  make([]Tenant, 0, len(t.owner)),
		Reqs:    make([]int32, len(t.reqs)),
		Tenants: t.tenants,
		index:   make(map[PageID]int32, len(t.owner)),
	}
	for step, r := range t.reqs {
		ix, ok := d.index[r.Page]
		if !ok {
			ix = int32(len(d.Pages))
			d.index[r.Page] = ix
			d.Pages = append(d.Pages, r.Page)
			d.Owners = append(d.Owners, r.Tenant)
		}
		d.Reqs[step] = ix
	}
	return d
}
