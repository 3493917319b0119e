package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"convexcache/internal/fault"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch on the monotonic clock.
type span struct {
	Name   string
	Parent int32 // index of the enclosing span; -1 for a root
	Batch  int32 // index of the POST the call served; -1 outside the batch loop
	Start  int64
	End    int64
}

// unresolved marks a span recorded by the timing filesystem from a shard
// goroutine: its parent is found afterwards by interval containment.
const unresolved = -2

// tracer keeps spans in memory until the run ends. One harness goroutine
// opens and closes its spans without locking; the timing filesystem records
// finished spans from shard goroutines into a separate, locked list. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span

	mu    sync.Mutex
	async []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index. The clock is read last, so the
// span holds as little of the tracer's own work as possible.
func (t *tracer) begin(name string, batch, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Batch: batch})
	i := len(t.spans) - 1
	t.spans[i].Start = t.now()
	return int32(i)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].End = t.now()
	}
}

// dur returns the length of span i.
func (t *tracer) dur(i int32) int64 { return t.spans[i].End - t.spans[i].Start }

// record adds a finished span, from any goroutine; its parent is resolved
// by finish.
func (t *tracer) record(name string, start, end int64) {
	t.mu.Lock()
	t.async = append(t.async, span{Name: name, Parent: unresolved, Batch: -1, Start: start, End: end})
	t.mu.Unlock()
}

// finish returns every span, harness spans first, with the parents of the
// recorded ones resolved. Call it once no goroutine records any more.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := append(t.spans, t.async...)
	resolveParents(all)
	return all
}

// resolveParents gives every unresolved span the innermost harness span that
// contains it, and that span's batch. This works because one harness
// goroutine makes the calls serially, so harness spans nest and never
// overlap otherwise. A span that no harness span contains becomes a root.
func resolveParents(spans []span) {
	// One goroutine opens the harness spans, so their indices are in start
	// order.
	var harness []int32
	for i, s := range spans {
		if s.Parent != unresolved {
			harness = append(harness, int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != unresolved {
			continue
		}
		s.Parent = -1
		// The spans open when s started are the last harness span to start
		// before it and that span's ancestors.
		k := sort.Search(len(harness), func(k int) bool { return spans[harness[k]].Start > s.Start }) - 1
		if k < 0 {
			continue
		}
		for p := harness[k]; p >= 0; p = spans[p].Parent {
			if spans[p].Start <= s.Start && s.End <= spans[p].End {
				s.Parent, s.Batch = p, spans[p].Batch
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover. Children may overlap one another — two shards write
// their logs at once — so covered time is the union of the children's
// intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		iv := children[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi int64 = 0, s.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans writes the spans as JSON: names once, then one
// [parent, name, batch, start_ns, end_ns] array per span, where a span's id is
// its index.
func writeSpans(path, workload string, spans []span) error {
	var names []string
	index := make(map[string]int)
	rows := make([][5]int64, len(spans))
	for i, s := range spans {
		n, ok := index[s.Name]
		if !ok {
			n = len(names)
			index[s.Name] = n
			names = append(names, s.Name)
		}
		rows[i] = [5]int64{int64(s.Parent), int64(n), int64(s.Batch), s.Start, s.End}
	}
	b, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Columns  []string   `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][5]int64 `json:"spans"`
	}{workload, []string{"parent", "name", "batch", "start_ns", "end_ns"}, names, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedFS is the WAL's filesystem with a span around every write and fsync,
// plus counts of both and of the bytes written.
type timedFS struct {
	fault.FS
	tr *tracer

	mu                   sync.Mutex
	writes, syncs, bytes int64
	writeNS, syncNS      int64
}

func (f *timedFS) Append(name string) (fault.File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	fault.File
	fs *timedFS
}

func (w *timedFile) Write(p []byte) (int, error) {
	t0 := w.fs.tr.now()
	n, err := w.File.Write(p)
	t1 := w.fs.tr.now()
	w.fs.tr.record("wal.write", t0, t1)
	w.fs.mu.Lock()
	w.fs.writes++
	w.fs.bytes += int64(n)
	w.fs.writeNS += t1 - t0
	w.fs.mu.Unlock()
	return n, err
}

func (w *timedFile) Sync() error {
	t0 := w.fs.tr.now()
	err := w.File.Sync()
	t1 := w.fs.tr.now()
	w.fs.tr.record("wal.sync", t0, t1)
	w.fs.mu.Lock()
	w.fs.syncs++
	w.fs.syncNS += t1 - t0
	w.fs.mu.Unlock()
	return err
}
