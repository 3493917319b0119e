// Command bench is the repeatable performance harness of the repo: it runs
// the E10 raw-throughput suite (every policy implementation over the large
// multi-tenant Zipf mix at several cache sizes), the sharded-replay
// aggregate suite, and the per-experiment table benchmarks, and writes a
// machine-readable JSON report (ns/op, requests/sec, allocs/op) so
// successive PRs leave a perf trajectory (BENCH_PR1.json, BENCH_PR2.json,
// ...). Reports are self-describing: they record the Go version,
// GOMAXPROCS, the git commit, the engine batch size and the shard counts
// measured, so a number can always be traced back to its machine shape.
//
// Usage:
//
//	bench [-out BENCH.json] [-before prior.json] [-skip-experiments]
//	      [-benchtime 1s] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	bench -compare BENCH_PRn.json [-threshold 10]
//
// -before embeds a previous report under "before" (and the fresh run under
// "after"), producing the before/after pair an optimization PR commits.
//
// -compare is the regression gate's engine: it runs the fresh suite,
// matches benchmarks by name against the given report (a bare report or
// the "after" half of a before/after pair), prints the per-benchmark delta
// %, and exits non-zero when any benchmark regressed by more than
// -threshold percent (throughput drop for req/s benchmarks, time increase
// for the rest). Compare two runs from the same machine: absolute numbers
// do not transfer across hosts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"convexcache/internal/cached"
	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/experiments"
	"convexcache/internal/policy"
	"convexcache/internal/runspec"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Result is one benchmark's measurements.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	ReqPerSec   float64 `json:"req_per_sec,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the full harness output.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Commit is the git HEAD the binary was run from ("" outside a repo).
	Commit string `json:"commit,omitempty"`
	// BatchSize is the dense engine's StepBatch run length.
	BatchSize int `json:"batch_size,omitempty"`
	// ShardCounts lists the RunSharded worker counts the sharded suite
	// measured.
	ShardCounts []int `json:"shard_counts,omitempty"`
	// Note carries free-form provenance (e.g. which engine a baseline was
	// measured against).
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Comparison pairs a prior report with a fresh one.
type Comparison struct {
	Before *Report `json:"before,omitempty"`
	After  Report  `json:"after"`
}

var shardCounts = []int{8}

// repeats is how many times each benchmark is measured; the fastest run is
// reported. Scheduling noise only ever slows a benchmark down, so best-of-N
// is the stable estimate of capability — the regression gate uses -repeat 3
// to keep noisy runners from flapping.
var repeats = 1

// measure runs fn through testing.Benchmark `repeats` times and keeps the
// fastest run.
func measure(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < repeats; i++ {
		r := testing.Benchmark(fn)
		if float64(r.T.Nanoseconds())/float64(r.N) < float64(best.T.Nanoseconds())/float64(best.N) {
			best = r
		}
	}
	return best
}

func main() {
	testing.Init()
	outPath := flag.String("out", "BENCH.json", "output JSON path")
	beforePath := flag.String("before", "", "prior report to embed under \"before\"")
	comparePath := flag.String("compare", "", "prior report to gate against: print per-benchmark deltas, exit non-zero past -threshold")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for -compare")
	skipExp := flag.Bool("skip-experiments", false, "run only the throughput suites")
	benchtime := flag.String("benchtime", "", "per-benchmark measuring time (passed to testing, e.g. 200ms)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	note := flag.String("note", "", "free-form provenance recorded in the report")
	repeat := flag.Int("repeat", 1, "measure each benchmark n times and report the fastest run")
	flag.Parse()
	if *repeat > 0 {
		repeats = *repeat
	}

	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatal(fmt.Errorf("-benchtime: %w", err))
		}
	}

	// Validate file arguments up front so a typo'd path fails before
	// minutes of benchmarking.
	var before *Report
	if *beforePath != "" {
		var err error
		if before, err = loadReport(*beforePath); err != nil {
			fatal(err)
		}
	}
	var baseline *Report
	if *comparePath != "" {
		var err error
		if baseline, err = loadReport(*comparePath); err != nil {
			fatal(err)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Commit:      gitCommit(),
		BatchSize:   sim.BatchSize,
		ShardCounts: shardCounts,
		Note:        *note,
	}
	rep.Benchmarks = append(rep.Benchmarks, throughputSuite()...)
	rep.Benchmarks = append(rep.Benchmarks, shardedSuite()...)
	rep.Benchmarks = append(rep.Benchmarks, liveSuite()...)
	if !*skipExp {
		rep.Benchmarks = append(rep.Benchmarks, experimentSuite()...)
	}

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if baseline != nil {
		regressions := compare(baseline, &rep, *threshold)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d benchmark(s) regressed more than %.0f%%\n", regressions, *threshold)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no regression beyond %.0f%%\n", *threshold)
		return
	}

	payload := Comparison{Before: before, After: rep}
	f, err := os.Create(*outPath)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(rep.Benchmarks), *outPath)
}

// loadReport reads a report file, accepting either a bare Report or a
// before/after Comparison (the "after" half is used).
func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cmp Comparison
	if err := json.Unmarshal(raw, &cmp); err != nil {
		return nil, fmt.Errorf("parse report %s: %w", path, err)
	}
	if len(cmp.After.Benchmarks) > 0 {
		return &cmp.After, nil
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse report %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("report %s contains no benchmarks", path)
	}
	return &rep, nil
}

// compare prints the per-benchmark delta of fresh against base and returns
// how many benchmarks regressed beyond the threshold (percent). Throughput
// benchmarks gate on req/s drops, the rest on ns/op increases; benchmarks
// present on only one side are reported but never gate.
func compare(base, fresh *Report, threshold float64) int {
	byName := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	regressions := 0
	for _, now := range fresh.Benchmarks {
		was, ok := byName[now.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %-34s (new, no baseline)\n", now.Name)
			continue
		}
		delete(byName, now.Name)
		var delta float64
		var unit string
		if was.ReqPerSec > 0 && now.ReqPerSec > 0 {
			// Positive delta = faster.
			delta = (now.ReqPerSec - was.ReqPerSec) / was.ReqPerSec * 100
			unit = "req/s"
		} else if was.NsPerOp > 0 {
			// Negate so positive still means faster.
			delta = -(now.NsPerOp - was.NsPerOp) / was.NsPerOp * 100
			unit = "ns/op"
		} else {
			continue
		}
		marker := ""
		if delta < -threshold {
			marker = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "bench: %-34s %+7.1f%% (%s)%s\n", now.Name, delta, unit, marker)
	}
	for name := range byName {
		fmt.Fprintf(os.Stderr, "bench: %-34s (baseline only, not run)\n", name)
	}
	return regressions
}

// gitCommit resolves the current HEAD for report provenance; best-effort.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// benchTrace mirrors the E10 workload of bench_test.go: a 4-tenant Zipf mix
// over 4096-page universes, 200k requests. The per-tenant seeds are pinned
// to the historical i+1 so the workload is bit-identical across reports.
func benchTrace(tenants int, pagesPer int64, length int) *trace.Trace {
	w := &runspec.WorkloadSpec{Length: length, Seed: 42}
	for i := 0; i < tenants; i++ {
		seed := int64(i + 1)
		w.Tenants = append(w.Tenants, runspec.TenantSpec{
			Stream: fmt.Sprintf("zipf:%d,0.9", pagesPer), Seed: &seed,
		})
	}
	tr, err := (&runspec.Scenario{Trace: runspec.TraceSpec{Workload: w}}).BuildTrace()
	if err != nil {
		fatal(err)
	}
	return tr
}

func benchCosts(tenants int) []costfn.Func {
	costs := make([]costfn.Func, tenants)
	for i := range costs {
		if i%2 == 0 {
			costs[i] = costfn.Monomial{C: 1, Beta: 2}
		} else {
			costs[i] = costfn.Linear{W: float64(i + 1)}
		}
	}
	return costs
}

// throughputSuite is the E10 matrix: policies x cache sizes on the shared
// large trace, reported as requests/sec. The fast policy runs on the batched
// dense loop; the others on the map engine's step.
func throughputSuite() []Result {
	tr := benchTrace(4, 4096, 200_000)
	tr.Dense() // densify once, outside every measured region
	costs := benchCosts(4)
	type entry struct {
		name string
		mk   func() sim.Policy
		ks   []int
	}
	all := []int{256, 4096, 65536}
	suite := []entry{
		{"fast", func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) }, all},
		// The reference implementation is O(cache) per eviction; only the
		// smallest size is tractable at benchmark scale.
		{"discrete", func() sim.Policy { return core.NewDiscrete(core.Options{Costs: costs}) }, []int{256}},
		{"lru", func() sim.Policy { return policy.NewLRU() }, all},
		{"greedy-dual", func() sim.Policy { return policy.NewGreedyDual([]float64{1, 2, 3, 4}) }, all},
	}
	var out []Result
	for _, e := range suite {
		for _, k := range e.ks {
			name := fmt.Sprintf("throughput/%s/k=%d", e.name, k)
			cfg := sim.Config{K: k}
			r := measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := e.mk()
					if _, err := sim.Run(tr, p, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			res := toResult(name, r)
			res.ReqPerSec = float64(tr.Len()*r.N) / r.T.Seconds()
			out = append(out, res)
			fmt.Fprintf(os.Stderr, "bench: %-28s %12.0f req/s %8d allocs/op\n", name, res.ReqPerSec, res.AllocsPerOp)
		}
	}
	return out
}

// shardedSuite measures deterministic sharded replay: the same trace
// partitioned across n single-writer dense engines replayed concurrently.
// The shard plan is built once outside the measured region, like the dense
// remap. Aggregate req/s scales with cores; the report's gomaxprocs field
// says how many this run had.
func shardedSuite() []Result {
	tr := benchTrace(4, 4096, 200_000)
	tr.Dense()
	costs := benchCosts(4)
	mk := func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) }
	ctx := context.Background()
	var out []Result
	for _, n := range shardCounts {
		pl, err := sim.BuildShards(tr, n)
		if err != nil {
			fatal(err)
		}
		for _, k := range []int{256, 4096, 65536} {
			if k < n {
				continue
			}
			name := fmt.Sprintf("throughput/fast-sharded/n=%d/k=%d", n, k)
			cfg := sim.Config{K: k}
			r := measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pl.Run(ctx, mk, cfg, n); err != nil {
						b.Fatal(err)
					}
				}
			})
			res := toResult(name, r)
			res.ReqPerSec = float64(tr.Len()*r.N) / r.T.Seconds()
			out = append(out, res)
			fmt.Fprintf(os.Stderr, "bench: %-28s %12.0f req/s %8d allocs/op\n", name, res.ReqPerSec, res.AllocsPerOp)
		}
	}
	return out
}

// liveSuite measures the live cache service end to end: a single-shard
// cached.Service on the dense shard core fed the shared trace as wire-shaped
// requests through Apply in mailbox-sized batches. Each iteration builds a
// fresh service, so interning and routing overhead is measured, not
// amortized away.
func liveSuite() []Result {
	tr := benchTrace(4, 4096, 200_000)
	costs := benchCosts(4)
	tenants := tr.NumTenants()
	reqs := make([]cached.Request, tr.Len())
	// One arena backs every key so the request set is a handful of heap
	// objects, not tr.Len() of them — the benchmark should weigh the
	// service, not the collector marking its input.
	arena := make([]byte, 0, 10*tr.Len())
	for i, r := range tr.Requests() {
		base := len(arena)
		arena = fmt.Appendf(arena, "p%d", r.Page)
		reqs[i] = cached.Request{Op: cached.OpGet, Tenant: r.Tenant, Key: arena[base:len(arena):len(arena)]}
	}
	const k = 4096
	const batch = 512
	const name = "live/fast-dense/n=1/k=4096"
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc, err := cached.New(cached.Config{
				K: k, Shards: 1, Tenants: tenants,
				NewPolicy: func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) },
			})
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < len(reqs); lo += batch {
				hi := lo + batch
				if hi > len(reqs) {
					hi = len(reqs)
				}
				if _, err := svc.Apply(reqs[lo:hi]); err != nil {
					svc.Close()
					b.Fatal(err)
				}
			}
			svc.Close()
		}
	})
	res := toResult(name, r)
	res.ReqPerSec = float64(tr.Len()*r.N) / r.T.Seconds()
	fmt.Fprintf(os.Stderr, "bench: %-28s %12.0f req/s %8d allocs/op\n", name, res.ReqPerSec, res.AllocsPerOp)
	return []Result{res, verifyBench(reqs, tenants, costs)}
}

// verifyBench times one clean Verify of a 2-shard service that served reqs
// once, outside the timer, with a small-segment WAL, so each replay reads
// sealed segments and the in-memory tail. req/s counts logged requests.
func verifyBench(reqs []cached.Request, tenants int, costs []costfn.Func) Result {
	const name = "live/verify/n=2/k=4096"
	dir, err := os.MkdirTemp("", "bench-verify-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	svc, err := cached.New(cached.Config{
		K: 4096, Shards: 2, Tenants: tenants,
		NewPolicy: func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) },
		WAL:       &cached.WALConfig{Dir: dir, Fsync: cached.FsyncOff, SegmentBytes: 256 << 10, CheckpointEvery: -1},
	})
	if err != nil {
		fatal(err)
	}
	for lo := 0; lo < len(reqs); lo += 512 {
		if _, err := svc.Apply(reqs[lo:min(lo+512, len(reqs))]); err != nil {
			fatal(err)
		}
	}
	svc.Close()
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rep, err := svc.Verify(context.Background()); err != nil || !rep.Clean {
				b.Fatalf("verify: %v %+v", err, rep)
			}
		}
	})
	res := toResult(name, r)
	res.ReqPerSec = float64(len(reqs)*r.N) / r.T.Seconds()
	fmt.Fprintf(os.Stderr, "bench: %-28s %12.0f req/s %8d B/op\n", name, res.ReqPerSec, res.BytesPerOp)
	return res
}

// experimentSuite benchmarks each experiment table end to end in quick mode,
// the same measurements as the BenchmarkExp* functions in bench_test.go.
func experimentSuite() []Result {
	var out []Result
	for _, e := range experiments.All() {
		run := e.Run
		name := "experiment/" + e.ID
		r := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb, err := run(true)
				if err != nil {
					b.Fatal(err)
				}
				if tb.NumRows() == 0 {
					b.Fatal("experiment produced no rows")
				}
			}
		})
		out = append(out, toResult(name, r))
		fmt.Fprintf(os.Stderr, "bench: %-28s %12.2f ms/op\n", name, float64(r.NsPerOp())/1e6)
	}
	return out
}

func toResult(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
