package sim

import (
	"context"
	"fmt"
	"testing"

	"convexcache/internal/trace"
)

// denseFIFO is fifoTest on the dense interface: the same FIFO semantics
// over dense page indices, served a batch at a time with its own residency,
// used to cross-check the two engines. badVictim makes it nominate a page
// that is not cached, which must fail the run.
type denseFIFO struct {
	fifoTest
	d         *trace.Dense
	k         int
	in        []bool
	fifo      []int32
	badVictim bool
}

func (f *denseFIFO) PrepareDense(d *trace.Dense, k int) bool {
	f.d, f.k = d, k
	if cap(f.in) < d.NumPages() {
		f.in = make([]bool, d.NumPages())
	}
	f.in = f.in[:d.NumPages()]
	clear(f.in)
	f.fifo = f.fifo[:0]
	return true
}

func (f *denseFIFO) StepBatch(base int, pages []int32, bc *BatchCounters, warm bool) error {
	for j, pg := range pages {
		if f.in[pg] {
			if !warm {
				bc.Hits++
			}
			continue
		}
		if !warm {
			bc.Misses[f.d.Owners[pg]]++
		}
		if len(f.fifo) >= f.k {
			v := f.fifo[0]
			if f.badVictim {
				v = -1
			}
			if v < 0 || !f.in[v] {
				return fmt.Errorf("dense fifo: victim %d not cached at step %d", v, base+j)
			}
			f.in[v] = false
			f.fifo = f.fifo[:copy(f.fifo, f.fifo[1:])]
			if !warm {
				bc.Evictions[f.d.Owners[v]]++
			}
		}
		f.in[pg] = true
		f.fifo = append(f.fifo, pg)
	}
	return nil
}

// decliningDense declines the dense path and must fall back to the map
// engine.
type decliningDense struct {
	denseFIFO
	declined bool
}

func (p *decliningDense) PrepareDense(d *trace.Dense, k int) bool {
	p.declined = true
	return false
}

func TestDenseEngineMatchesMapEngine(t *testing.T) {
	tr := seqTrace(t, 1, 101, 2, 1, 101, 3, 2, 1, 202, 3, 1, 101)
	for _, k := range []int{1, 2, 3, 5} {
		for _, warm := range []int{0, 3} {
			mapRes, err := runMap(context.Background(), tr, &fifoTest{}, Config{K: k, WarmupSteps: warm})
			if err != nil {
				t.Fatal(err)
			}
			denseRes, err := Run(tr, &denseFIFO{}, Config{K: k, WarmupSteps: warm, Engine: EngineDense})
			if err != nil {
				t.Fatal(err)
			}
			if mapRes.Hits != denseRes.Hits || mapRes.Steps != denseRes.Steps || mapRes.EffectiveSteps != denseRes.EffectiveSteps {
				t.Fatalf("k=%d warm=%d: results differ: map=%+v dense=%+v", k, warm, mapRes, denseRes)
			}
			for i := range mapRes.Misses {
				if mapRes.Misses[i] != denseRes.Misses[i] || mapRes.Evictions[i] != denseRes.Evictions[i] {
					t.Fatalf("k=%d warm=%d tenant %d: counters differ: map=%+v dense=%+v", k, warm, i, mapRes, denseRes)
				}
			}
		}
	}
}

func TestDenseEngineWarmup(t *testing.T) {
	tr := seqTrace(t, 1, 2, 1, 3)
	res, err := Run(tr, &denseFIFO{}, Config{K: 3, WarmupSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMisses() != 1 || res.Hits != 1 {
		t.Errorf("steady-state misses=%d hits=%d, want 1/1", res.TotalMisses(), res.Hits)
	}
	if res.EffectiveSteps != 2 {
		t.Errorf("EffectiveSteps = %d, want 2", res.EffectiveSteps)
	}
}

func TestDensePolicyDeclineFallsBack(t *testing.T) {
	tr := seqTrace(t, 1, 2, 1, 3, 1)
	p := &decliningDense{}
	res, err := Run(tr, p, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.declined {
		t.Fatal("PrepareDense was not consulted")
	}
	// The map fallback drove the sparse fifoTest methods.
	if res.Hits != 1 || res.TotalMisses() != 4 {
		t.Errorf("fallback run: hits=%d misses=%d, want 1/4", res.Hits, res.TotalMisses())
	}
}

func TestDenseEngineRejectsBadVictim(t *testing.T) {
	tr := seqTrace(t, 1, 2, 3)
	if _, err := Run(tr, &denseFIFO{badVictim: true}, Config{K: 1}); err == nil {
		t.Fatal("non-resident dense victim accepted")
	}
}

// TestDenseEngineZeroAllocSteadyState is the tentpole's allocation budget:
// once the run's slices exist, the request loop must not allocate. The
// engine and policy state are prepared by a first run; the second run over
// the same trace reuses them, so its steady-state allocations per request
// must be (amortized) zero.
func TestDenseEngineZeroAllocSteadyState(t *testing.T) {
	b := trace.NewBuilder()
	for i := 0; i < 5000; i++ {
		b.Add(trace.Tenant(i%3), trace.PageID((i%3)*1000+i*7%97))
	}
	tr := b.MustBuild()
	tr.Dense() // densify outside the measured region
	p := &denseFIFO{}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(tr, p, Config{K: 32}); err != nil {
			t.Fatal(err)
		}
	})
	// A full 5000-request run may allocate a fixed handful of setup slices
	// (result counters); the loop itself must not. Amortized
	// over 5000 requests anything per-step would exceed this bound by 100x.
	if allocs > 20 {
		t.Errorf("allocations per run = %g, want <= 20 (setup only)", allocs)
	}
}
