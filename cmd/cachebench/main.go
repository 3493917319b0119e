// Command cachebench is the benchmark of record for the live cache service.
// It builds cmd/cached from the checkout, starts `cached serve` as a child
// process on loopback for each workload, drives it from a closed-loop client
// with two connections, checks every answer, and prints each end-to-end
// metric by name and unit. With -trace it feeds the same seeded batches
// through the public entry point of each layer in process, records spans
// around those calls, and prints the per-layer metrics instead.
//
//	bash cmd/cachebench/run.sh -workload bulk -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics BENCHMARK.json lists for the mode. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric with its unit and the direction that is better.
type metricDef struct {
	name, unit, better string
	// gated end-to-end metrics apply to every workload, are never 0, and
	// are the ones BENCHMARK.json bounds.
	gated bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", true},
	{"throughput_keys_per_s", "keys/s", "higher", true},
	{"latency_p50_ms", "ms", "lower", true},
	{"latency_p99_ms", "ms", "lower", true},
	{"cpu_us_per_key", "us/key", "lower", true},
	{"peak_rss_mb", "MB", "lower", true},
	{"error_ratio", "ratio", "lower", false},
	{"miss_ratio", "ratio", "lower", true},
	{"convex_cost", "cost", "lower", true},
	{"verify_s", "s", "lower", true},
	{"wal_bytes_per_key", "B/key", "lower", false},
	{"recovery_s", "s", "lower", false},
}

var perLayer = []metricDef{
	{name: "cached.wire.parse_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.wire.parse_allocs_per_key", unit: "allocs/key", better: "lower"},
	{name: "core.open.access_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.service.apply_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.service.apply_self_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.service.apply_allocs_per_key", unit: "allocs/key", better: "lower"},
	{name: "cached.engine.evictions_per_key", unit: "evictions/key", better: "lower"},
	{name: "cached.wal.write_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.wal.sync_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.wal.writes_per_post", unit: "writes/post", better: "lower"},
	{name: "cached.wal.syncs_per_post", unit: "syncs/post", better: "lower"},
	{name: "cached.wal.bytes_per_key", unit: "B/key", better: "lower"},
	{name: "cached.recover_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.verify.replay_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.http.handler_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.http.handler_self_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "cached.http.handler_allocs_per_post", unit: "allocs/post", better: "lower"},
	{name: "obs.middleware_ns_per_post", unit: "ns/post", better: "lower"},
	{name: "resilience.admit_ns_per_post", unit: "ns/post", better: "lower"},
	{name: "net.overhead_us_per_post", unit: "us/post", better: "lower"},
	{name: "mrclive.observe_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "mrclive.rebalance_ms", unit: "ms", better: "lower"},
	{name: "go.alloc_bytes_per_key", unit: "B/key", better: "lower"},
	{name: "go.gc_cycles_per_mkey", unit: "cycles/Mkey", better: "lower"},
	{name: "loadgen.gen_s", unit: "s", better: "lower"},
	{name: "loadgen.client_cpu_us_per_key", unit: "us/key", better: "lower"},
	{name: "layer.remainder_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// extraSetups is the number of bare start-ups a run makes before its rounds,
// so setup_s is a median of more samples than there are rounds.
const extraSetups = 9

// metric is one measured value; note carries its sample count or basis.
type metric struct {
	name  string
	value float64
	note  string
}

// report is one workload run.
type report struct {
	workload          string
	rounds            int
	metrics           []metric
	refused           []string // percentiles the sample could not support
	attempted, failed int
	problems          []string
	pass              *layerPass // traced runs: the last layer pass
}

func (rep *report) add(name string, v float64, note string) {
	rep.metrics = append(rep.metrics, metric{name, v, note})
}

func (rep *report) get(name string) (float64, bool) {
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func (rep *report) correct() bool { return rep.failed == 0 && len(rep.problems) == 0 }

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("cachebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: bulk, point, durable or adaptive (empty runs all four)")
	seed := fl.Int64("seed", 1, "seed of the generated requests")
	seconds := fl.Int("seconds", 30, "time budget of one workload run in seconds; rounds repeat until it is spent")
	traceArg := fl.String("trace", "0", "per-layer mode: 0 off, 1 on with spans in .bench_build/spans-<workload>.json, or the spans file path")
	scale := fl.Float64("scale", 1, "multiplies every workload's key counts (0.01 for a smoke run)")
	calibrate := fl.Int("calibrate", 0, "run each workload N times, seeds seed..seed+N-1, and print every end-to-end metric's spread")
	root := fl.String("root", ".", "repository root holding cmd/cached")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *scale <= 0 || *calibrate < 0 || fl.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cachebench: want -seconds >= 1, -scale > 0, -calibrate >= 0 and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "cachebench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	traced := *traceArg != "0"
	if traced && *calibrate > 0 {
		fmt.Fprintln(os.Stderr, "cachebench: -calibrate measures the end-to-end metrics; drop -trace")
		return 2
	}

	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachebench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	budget := time.Duration(*seconds) * time.Second

	if *calibrate > 0 {
		return runCalibrate(e, selected, *seed, *scale, budget, *calibrate, *root, stdout)
	}
	code := 0
	for _, w := range selected {
		var rep *report
		if traced {
			rep, err = runTraced(e, w, *seed, *scale, budget)
		} else {
			rep, err = runE2E(e, w, *seed, *scale, budget)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cachebench: %s: %v\n", w.name, err)
			return 1
		}
		if traced {
			path := spansPath(*traceArg, filepath.Join(e.root, ".bench_build"), w.name, len(selected) > 1)
			if err := writeSpans(path, w.name, rep.pass.spans); err != nil {
				fmt.Fprintf(os.Stderr, "cachebench: write spans: %v\n", err)
				return 1
			}
			printLayers(stdout, rep, path)
		}
		defs := gatedEndToEnd()
		if traced {
			defs = perLayer
		}
		if err := printReport(stdout, rep, defs); err != nil {
			fmt.Fprintln(os.Stderr, "cachebench:", err)
			return 1
		}
		if !rep.correct() {
			code = 1
		}
	}
	return code
}

// newEnv builds cmd/cached from the checkout at root into .bench_build and
// makes the process's scratch directory there.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "cached")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cached")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("build cmd/cached in %s: %w", root, err)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, work: work}, nil
}

// spansPath resolves -trace: 1 selects a file per workload under build; a
// path names the file, with the workload inserted when several run.
func spansPath(arg, build, workload string, several bool) string {
	if arg == "1" {
		return filepath.Join(build, "spans-"+workload+".json")
	}
	if !several {
		return arg
	}
	ext := filepath.Ext(arg)
	return strings.TrimSuffix(arg, ext) + "-" + workload + ext
}

// runRounds repeats rounds on st while one more round of the last one's
// length still fits the budget, measured from start; it always runs one, and
// checks the clean shutdown on the first. after, when non-nil, runs after
// each round and counts toward its length.
func runRounds(e *env, w workload, st *stream, start time.Time, budget time.Duration, after func(*roundResult) error) ([]*roundResult, error) {
	var rs []*roundResult
	var last time.Duration
	for len(rs) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		r, err := runRound(e, w, st, len(rs) == 0)
		if err != nil {
			return nil, err
		}
		if after != nil {
			if err := after(r); err != nil {
				return nil, err
			}
		}
		rs = append(rs, r)
		last = time.Since(t)
		fmt.Fprintf(os.Stderr, "cachebench: %s round %d: %.0f keys/s, %d problems, %.1fs\n",
			w.name, len(rs), float64(r.measKeys)/r.wall.Seconds(), len(r.problems), last.Seconds())
	}
	return rs, nil
}

// collect folds the rounds' counts and problems into rep.
func (rep *report) collect(rs []*roundResult) {
	rep.rounds = len(rs)
	for _, r := range rs {
		rep.attempted += r.posts
		rep.failed += r.failed
		rep.problems = append(rep.problems, r.problems...)
	}
}

// runE2E is one untraced workload run: bare start-ups, then rounds until the
// budget is spent. Each metric is the median over rounds, except the
// latency percentiles, which come from windows of POSTs (windowLatency).
func runE2E(e *env, w workload, seed int64, scale float64, budget time.Duration) (*report, error) {
	start := time.Now()
	st, err := generate(w, seed, scale)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name}
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		d, err := bareSetup(e, w)
		if d == 0 {
			return nil, err
		}
		if err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
		setups = append(setups, d.Seconds())
	}
	rs, err := runRounds(e, w, st, start, budget, nil)
	if err != nil {
		return nil, err
	}
	rep.collect(rs)
	med := func(f func(r *roundResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
	}
	perRound := fmt.Sprintf("median of %d rounds", len(rs))
	rep.add("setup_s", median(setups), fmt.Sprintf("median of %d start-ups", len(setups)))
	rep.add("throughput_keys_per_s", med(func(r *roundResult) float64 { return float64(r.measKeys) / r.wall.Seconds() }),
		fmt.Sprintf("%s of %d keys", perRound, countKeys(st.meas)))
	lats := make([][]time.Duration, len(rs))
	for i, r := range rs {
		lats[i] = r.lat
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p99_ms", 0.99}} {
		m, err := windowLatency(p.name, lats, p.q)
		if err != nil {
			rep.refused = append(rep.refused, err.Error())
			continue
		}
		rep.metrics = append(rep.metrics, m)
	}
	rep.add("cpu_us_per_key", med(func(r *roundResult) float64 {
		return float64(r.serverCPU.Nanoseconds()) / 1e3 / float64(r.measKeys)
	}), perRound+", server utime+stime")
	rep.add("peak_rss_mb", med(func(r *roundResult) float64 { return float64(r.peakRSS) / 1e6 }), perRound+", server VmHWM")
	rep.add("error_ratio", float64(rep.failed)/float64(rep.attempted), fmt.Sprintf("%d of %d POSTs failed", rep.failed, rep.attempted))
	rep.add("miss_ratio", med(func(r *roundResult) float64 { return r.missRatio }), perRound)
	rep.add("convex_cost", med(func(r *roundResult) float64 { return r.cost }), perRound+", Σ f_i(misses_i)")
	rep.add("verify_s", med(func(r *roundResult) float64 { return r.verify.Seconds() }), perRound)
	if w.fsync != "" {
		rep.add("wal_bytes_per_key", med(func(r *roundResult) float64 { return float64(r.walBytes) / float64(r.allKeys) }), perRound)
	}
	if w.kill {
		rep.add("recovery_s", med(func(r *roundResult) float64 { return r.recovery.Seconds() }), perRound)
	}
	return rep, nil
}

// runTraced is one traced workload run: each round is followed by a layer
// pass over the same stream, and each per-layer metric is the median over
// passes.
func runTraced(e *env, w workload, seed int64, scale float64, budget time.Duration) (*report, error) {
	start := time.Now()
	st, err := generate(w, seed, scale)
	if err != nil {
		return nil, err
	}
	gen := time.Since(start).Seconds()
	rep := &report{workload: w.name}
	var passes []*layerPass
	rs, err := runRounds(e, w, st, start, budget, func(r *roundResult) error {
		lp, err := runLayers(e, w, st, r)
		if err != nil {
			return err
		}
		lp.metrics["loadgen.gen_s"] = gen
		if len(passes) > 0 {
			passes[len(passes)-1].spans = nil // only the last pass's spans are written
		}
		passes = append(passes, lp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.collect(rs)
	for _, d := range perLayer {
		xs := make([]float64, len(passes))
		for i, lp := range passes {
			xs[i] = lp.metrics[d.name]
		}
		rep.add(d.name, median(xs), fmt.Sprintf("median of %d passes", len(passes)))
	}
	rep.pass = passes[len(passes)-1]
	return rep, nil
}

// gatedEndToEnd returns the end-to-end metrics BENCHMARK.json bounds.
func gatedEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

// printReport prints every metric of rep with its unit, then the result line
// with the metrics of defs.
func printReport(out io.Writer, rep *report, defs []metricDef) error {
	fmt.Fprintf(out, "%s: %d rounds, %d POSTs, %d failed\n", rep.workload, rep.rounds, rep.attempted, rep.failed)
	units := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "  %-38s %14.6g %-13s %s\n", m.name, m.value, units[m.name].unit, m.note)
	}
	for _, r := range rep.refused {
		fmt.Fprintf(out, "  %s\n", r)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(out, "  FAILED CHECK: %s\n", p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, make(map[string]jsonMetric)}
	for _, d := range defs {
		if v, ok := rep.get(d.name); ok {
			res.Metrics[d.name] = jsonMetric{v, d.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

// printLayers prints the last layer pass: per span name, its count, total
// and self time, and self time per key; then how the layers' self times add
// up to the handler's time and the server CPU per key.
func printLayers(out io.Writer, rep *report, path string) {
	lp := rep.pass
	type row struct {
		n         int
		dur, self int64
	}
	rows := make(map[string]*row)
	var names []string
	for i, s := range lp.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.n++
		r.dur += s.End - s.Start
		r.self += lp.self[i]
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s: spans of the last layer pass (%d keys) in %s\n", rep.workload, lp.keys, path)
	fmt.Fprintf(out, "  %-16s %8s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "self_ns/key")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(out, "  %-16s %8d %12.3f %12.3f %14.1f\n", n, r.n, float64(r.dur)/1e6, float64(r.self)/1e6, float64(r.self)/float64(lp.keys))
	}
	remainder := lp.metrics["layer.remainder_share"]
	fmt.Fprintf(out, "  accounting, ns/key: parse %.1f + handler self %.1f + apply self %.1f + engine %.1f + wal %.1f = handler %.1f,"+
		" which is %.1f%% of server CPU per key; remainder share %.3f\n",
		lp.parse, lp.handlerSelf, lp.applySelf, lp.engine, lp.wal, lp.handler, 100*(1-remainder), remainder)
}

// runCalibrate runs each workload n times and prints, per end-to-end metric,
// the median, quartiles, quartile spread and largest deviation from the
// median, all shares of the median where relative.
func runCalibrate(e *env, selected []workload, seed int64, scale float64, budget time.Duration, n int, root string, out io.Writer) int {
	commit := "unknown"
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s; %d runs of %s per workload, seeds %d..%d, scale %g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit,
		n, budget, seed, seed+int64(n)-1, scale)
	code := 0
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			rep, err := runE2E(e, w, seed+int64(i), scale, budget)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cachebench: %s: %v\n", w.name, err)
				return 1
			}
			if !rep.correct() {
				fmt.Fprintf(os.Stderr, "cachebench: %s seed %d: %v\n", w.name, seed+int64(i), rep.problems)
				code = 1
			}
			for _, m := range rep.metrics {
				values[m.name] = append(values[m.name], m.value)
			}
		}
		fmt.Fprintf(out, "\n%s\n\n| metric | unit | median | q1 | q3 | (q3-q1)/median | max dev/median |\n|---|---|---|---|---|---|---|\n", w.name)
		for _, d := range endToEnd {
			xs := values[d.name]
			med := median(xs)
			if len(xs) < 2 || med == 0 {
				continue
			}
			q := quartiles(xs)
			dev := 0.0
			for _, x := range xs {
				dev = max(dev, math.Abs(x-med))
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f |\n",
				d.name, d.unit, med, q[0], q[2], (q[2]-q[0])/med, dev/med)
		}
	}
	return code
}
