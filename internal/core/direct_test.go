package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"convexcache/internal/costfn"
	"convexcache/internal/trace"
)

var updateDirect = flag.Bool("update", false, "rewrite testdata/direct-driver.golden")

// directScript is one scripted direct drive of Fast's sim.Policy methods.
type directScript struct {
	name    string
	opt     Options
	tenants int
	seed    int64
}

func directCosts(n int) []costfn.Func {
	sla, err := costfn.SLARefund(4, 0.25, 4)
	if err != nil {
		panic(err)
	}
	base := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2},
		costfn.Linear{W: 3},
		sla,
		costfn.Monomial{C: 0.5, Beta: 3},
	}
	out := make([]costfn.Func, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

func directScripts() []directScript {
	return []directScript{
		{"evict-count", Options{Costs: directCosts(3)}, 3, 1},
		{"miss-count", Options{Costs: directCosts(3), CountMisses: true}, 3, 2},
		{"discrete-deriv", Options{Costs: directCosts(3), UseDiscreteDeriv: true}, 3, 3},
		{"forced-cursor", Options{Costs: directCosts(4), ForceVictimCursor: true}, 4, 4},
		{"tenants-grow-past-cursor-floor", Options{Costs: directCosts(20), CountMisses: true}, 20, 5},
	}
}

// runDirectScript drives Fast the way the substrates outside the engine do,
// and writes every observable outcome to w: each Victim, the per-tenant
// counters after every operation, and the final snapshot. Besides the
// engine protocol it makes the calls no engine makes:
//
//   - back-to-back OnEvicts of a tenant's pages in ascending page order,
//     most of them not the tenant's least-recent page (multipool migration);
//   - an OnEvict with no following OnInsert (hierarchy's exclusive
//     promotion);
//   - OnHit and OnEvict on absent pages, which must be no-ops.
//
// Draws 95–99 make no call and print nothing. They stay in the draw, so the
// rng sequence, and with it the golden transcript, is the recorded one.
func runDirectScript(sc directScript, w *strings.Builder) {
	const (
		k   = 7
		ops = 160
	)
	rng := rand.New(rand.NewSource(sc.seed))
	f := NewFast(sc.opt)
	cache := make(map[trace.PageID]trace.Tenant)
	step := 0
	// Tenants enter gradually, so the drive meets new tenants mid-run.
	active := 1
	counters := func() string {
		var b strings.Builder
		for i := 0; i <= sc.tenants; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v", f.Misses(trace.Tenant(i)))
		}
		return b.String()
	}
	resident := func(t trace.Tenant) []trace.PageID {
		var ps []trace.PageID
		for p, o := range cache {
			if t < 0 || o == t {
				ps = append(ps, p)
			}
		}
		slices.Sort(ps)
		return ps
	}
	for op := 0; op < ops; op++ {
		step++
		if active < sc.tenants && op%8 == 7 {
			active++
		}
		x := rng.Intn(100)
		switch {
		case x < 72:
			t := trace.Tenant(rng.Intn(active))
			r := trace.Request{Tenant: t, Page: trace.PageID(int(t)*100 + rng.Intn(6))}
			if _, ok := cache[r.Page]; ok {
				f.OnHit(step, r)
				fmt.Fprintf(w, "%d hit %d | %s\n", op, r.Page, counters())
				continue
			}
			victim := trace.PageID(-1)
			if len(cache) >= k {
				victim = f.Victim(step, r)
				delete(cache, victim)
				f.OnEvict(step, victim)
			}
			cache[r.Page] = r.Tenant
			f.OnInsert(step, r)
			fmt.Fprintf(w, "%d miss %d victim %d | %s\n", op, r.Page, victim, counters())
		case x < 76:
			p := trace.PageID(rng.Intn(active)*100 + 50 + rng.Intn(3))
			f.OnHit(step, trace.Request{Tenant: trace.Tenant(p / 100), Page: p})
			fmt.Fprintf(w, "%d hit-absent %d | %s\n", op, p, counters())
		case x < 80:
			p := trace.PageID(rng.Intn(active)*100 + 50 + rng.Intn(3))
			f.OnEvict(step, p)
			fmt.Fprintf(w, "%d evict-absent %d | %s\n", op, p, counters())
		case x < 88:
			ps := resident(-1)
			if len(ps) == 0 {
				fmt.Fprintf(w, "%d promote none\n", op)
				continue
			}
			p := ps[rng.Intn(len(ps))]
			delete(cache, p)
			f.OnEvict(step, p)
			fmt.Fprintf(w, "%d promote %d | %s\n", op, p, counters())
		case x < 95:
			t := trace.Tenant(rng.Intn(active))
			ps := resident(t)
			for _, p := range ps {
				delete(cache, p)
				f.OnEvict(step, p)
			}
			fmt.Fprintf(w, "%d migrate %d pages %v | %s\n", op, t, ps, counters())
		}
	}
	snap, err := json.Marshal(f.Snapshot())
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "final %s\n", snap)
}

// TestFastDirectDriverContract pins Fast's behaviour under the direct
// drivers — multipool, hierarchy, the lower-bound adversary — which call
// its sim.Policy methods outside the engine protocol. Discrete cannot serve as the reference here (it stages each
// eviction until the next OnInsert), so the expected transcript is a golden
// file: regenerate it with -update only when a behaviour change is meant.
func TestFastDirectDriverContract(t *testing.T) {
	var b strings.Builder
	for _, sc := range directScripts() {
		fmt.Fprintf(&b, "== %s\n", sc.name)
		runDirectScript(sc, &b)
	}
	got := b.String()
	path := filepath.Join("testdata", "direct-driver.golden")
	if *updateDirect {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("transcript diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("transcript length %d lines, want %d", len(gl), len(wl))
}
