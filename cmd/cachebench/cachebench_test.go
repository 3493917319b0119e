package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileReportsSampleCountAndRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		name   string
		n      int
		q      float64
		want   float64
		note   string
		refuse string
	}{
		{name: "p50", n: 1000, q: 0.50, want: 500, note: "n=1000, 500 above"},
		{name: "p99", n: 1000, q: 0.99, want: 990, note: "n=1000, 10 above"},
		// 999 samples leave only 9 above the 99th percentile.
		{name: "p99", n: 999, q: 0.99, refuse: "999 samples, 9 above it"},
		{name: "p50", n: 1, q: 0.50, refuse: "1 samples, 0 above it"},
		{name: "p50", n: 0, q: 0.50, refuse: "0 samples, 0 above it"},
	} {
		m, err := latencyMetric(c.name, xs[:c.n], c.q)
		if c.refuse != "" {
			if err == nil || !strings.Contains(err.Error(), c.refuse) {
				t.Errorf("%s of %d samples: err %v, want refusal naming %q", c.name, c.n, err, c.refuse)
			}
			continue
		}
		if err != nil || m.value != c.want || m.note != c.note {
			t.Errorf("%s of %d samples = %v %q (%v), want %v %q", c.name, c.n, m.value, m.note, err, c.want, c.note)
		}
	}
}

func TestWindowLatencyReportsTheLowerQuartileOfWindows(t *testing.T) {
	fill := func(d time.Duration, n int) []time.Duration {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = d
		}
		return lat
	}
	ms := time.Millisecond
	// 15000 POSTs split into two windows of 7500 (at 2 and 6 ms), 30000
	// into three of 10000 (at 1, 3 and 4 ms). The lower quartile of the five
	// window medians by nearest rank is the second lowest.
	rounds := [][]time.Duration{
		append(fill(2*ms, 7500), fill(6*ms, 7500)...),
		append(append(fill(1*ms, 10000), fill(3*ms, 10000)...), fill(4*ms, 10000)...),
	}
	m, err := windowLatency("p50", rounds, 0.50)
	if err != nil || m.value != 2 || m.note != "lower quartile of 5 windows; n=7500, 3750 above" {
		t.Errorf("p50 = %v %q (%v), want 2 from the first window", m.value, m.note, err)
	}
	m, err = windowLatency("p50", rounds[1:], 0.50)
	if err != nil || m.value != 1 || m.note != "lower quartile of 3 windows; n=10000, 5000 above" {
		t.Errorf("p50 of three windows = %v %q (%v), want the lowest, 1", m.value, m.note, err)
	}
	rounds[1] = rounds[1][:900]
	if _, err := windowLatency("p99", rounds, 0.99); err == nil || !strings.Contains(err.Error(), "900 samples, 9 above it") {
		t.Errorf("p99 with a 900-POST window: err %v, want a refusal", err)
	}
	if _, err := windowLatency("p50", nil, 0.50); err == nil {
		t.Error("p50 of no rounds was not refused")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 || in[0] != 4 {
		t.Errorf("median = %v (input now %v), want 2.5 and the input untouched", got, in)
	}
	// Expected cut points are statistics.quantiles(xs, n=4) from Python 3.11.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 3}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{5, 1, 4, 2.5, 3}, [3]float64{1.75, 3.0, 4.5}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.8, 1.2, 1.05, 0.95, 1.0, 1.15}, [3]float64{0.9375, 1.025, 1.1625}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestConvexCostByHand(t *testing.T) {
	// monomial:1,2 at 3 is 9; linear:2 at 5 is 10; monomial:1,2 at 0 is 0;
	// linear:4 at 1 is 4.
	got, err := convexCost(costSpecs, []int64{3, 5, 0, 1})
	if err != nil || got != 23 {
		t.Errorf("convexCost = %v, %v; want 23", got, err)
	}
	got, err = convexCost([]string{"monomial:2,3", "linear:0.5"}, []int64{10, 7})
	if err != nil || got != 2003.5 {
		t.Errorf("convexCost = %v, %v; want 2*10^3 + 0.5*7 = 2003.5", got, err)
	}
	if _, err := convexCost(costSpecs, []int64{1, 2}); err == nil {
		t.Error("convexCost accepted 2 miss counts for 4 cost specs")
	}
	if _, err := convexCost([]string{"cubic:1"}, []int64{1}); err == nil {
		t.Error("convexCost accepted an unknown cost spec")
	}
}

func TestSelfTimeUnderOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "service.apply", Parent: -1, Start: 0, End: 100},
		{Name: "wal.write", Parent: 0, Start: 10, End: 40},
		{Name: "wal.write", Parent: 0, Start: 30, End: 60}, // overlaps the first
		{Name: "wal.sync", Parent: 0, Start: 90, End: 120}, // outlives the parent
		{Name: "inner", Parent: 1, Start: 15, End: 20},     // a grandchild
		{Name: "wal.write", Parent: 0, Start: 20, End: 25}, // inside the first
	}
	// The parent's children cover [10,60] and [90,100].
	want := []int64{40, 25, 30, 30, 5, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times = %v, want %v", got, want)
		}
	}
}

func TestResolveParentsByContainment(t *testing.T) {
	spans := []span{
		{Name: "batch", Parent: -1, Batch: 7, Start: 0, End: 100},
		{Name: "service.apply", Parent: 0, Batch: 7, Start: 10, End: 50},
		{Name: "http.handler", Parent: 0, Batch: 7, Start: 60, End: 90},
		{Name: "verify", Parent: -1, Batch: -1, Start: 200, End: 300},
		{Name: "wal.write", Parent: unresolved, Batch: -1, Start: 20, End: 30},
		{Name: "wal.sync", Parent: unresolved, Batch: -1, Start: 52, End: 58},
		{Name: "wal.write", Parent: unresolved, Batch: -1, Start: 150, End: 160},
		{Name: "wal.write", Parent: unresolved, Batch: -1, Start: -5, End: 1},
		{Name: "wal.sync", Parent: unresolved, Batch: -1, Start: 250, End: 260},
	}
	resolveParents(spans)
	want := []struct{ parent, batch int32 }{{1, 7}, {0, 7}, {-1, -1}, {-1, -1}, {3, -1}}
	for i, w := range want {
		s := spans[4+i]
		if s.Parent != w.parent || s.Batch != w.batch {
			t.Errorf("span %d [%d,%d]: parent %d batch %d, want %d %d", 4+i, s.Start, s.End, s.Parent, s.Batch, w.parent, w.batch)
		}
	}
}

func TestParsePromHistogram(t *testing.T) {
	text := `# TYPE http_request_duration_seconds histogram
http_request_duration_seconds_bucket{route="/v1/cache",le="0.001"} 40
http_request_duration_seconds_bucket{route="/v1/cache",le="+Inf"} 42
http_request_duration_seconds_sum{route="/v1/cache"} 0.0125
http_request_duration_seconds_count{route="/v1/cache"} 42
http_request_duration_seconds_count{route="/metrics"} 3
# TYPE process_uptime_seconds gauge
process_uptime_seconds 12.5
`
	m, err := parseProm([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	sum, count := m[`http_request_duration_seconds_sum{route="/v1/cache"}`], m[`http_request_duration_seconds_count{route="/v1/cache"}`]
	if sum != 0.0125 || count != 42 || m["process_uptime_seconds"] != 12.5 {
		t.Errorf("sum %v count %v uptime %v, want 0.0125 42 12.5", sum, count, m["process_uptime_seconds"])
	}
	if v := m[`http_request_duration_seconds_bucket{route="/v1/cache",le="+Inf"}`]; v != 42 {
		t.Errorf("+Inf bucket = %v, want 42", v)
	}
	if _, err := parseProm([]byte("novalue\n")); err == nil {
		t.Error("parseProm accepted a line without a value")
	}
}

func TestParseProc(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (cached (serve) x) S 1 4242 4242 0 -1 4194560 900 0 3 0 250 75 0 0 20 0 9 0 12345 0 0\n"
	u, s, err := parseProcStat([]byte(stat))
	if err != nil || u != 250 || s != 75 {
		t.Errorf("parseProcStat = %d %d %v, want 250 75", u, s, err)
	}
	if _, _, err := parseProcStat([]byte("4242 (cached) S 1 2")); err == nil {
		t.Error("parseProcStat accepted a truncated line")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}

	status := "Name:\tcached\nVmPeak:\t  812345 kB\nVmHWM:\t   73452 kB\nVmRSS:\t   70000 kB\n"
	if kb, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || kb != 73452 {
		t.Errorf("parseStatusKB = %d %v, want 73452", kb, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing field")
	}
}

// benchmarkSpec mirrors the fields of BENCHMARK.json the harness must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec := readBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	gated := gatedEndToEnd()
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness gates %d", len(spec.EndToEnd), len(gated))
	}
	for i, d := range gated {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at 1% size through the command, untraced and
// traced, and checks that each run is correct and prints every metric
// BENCHMARK.json names. p99 may be refused at this size, and must then say
// how many samples it had.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/cached and serves four workloads")
	}
	spec := readBenchmarkSpec(t)
	spans := t.TempDir() + "/spans.json"
	for _, w := range workloads {
		for _, traceArg := range []string{"0", spans} {
			var out strings.Builder
			code := run([]string{"-root", "../..", "-workload", w.name, "-seed", "3", "-seconds", "1", "-scale", "0.01", "-trace", traceArg}, &out)
			text := out.String()
			if code != 0 {
				t.Fatalf("%s trace=%s exited %d:\n%s", w.name, traceArg, code, text)
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v\n%s", w.name, err, text)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct %v, %d of %d failed", w.name, traceArg, res.Correct, res.Failed, res.Attempted)
			}
			type want struct{ name, unit string }
			var names []want
			if traceArg == "0" {
				if !strings.Contains(text, "  error_ratio ") || !strings.Contains(text, "0 of ") {
					t.Errorf("%s: no zero error_ratio line:\n%s", w.name, text)
				}
				for _, m := range spec.EndToEnd {
					names = append(names, want{m.Name, m.Unit})
				}
			} else {
				if _, err := os.Stat(spans); err != nil {
					t.Errorf("%s: spans file: %v", w.name, err)
				}
				for _, m := range spec.PerLayer {
					names = append(names, want{m.Name, m.Unit})
				}
			}
			for _, m := range names {
				got, ok := res.Metrics[m.name]
				switch {
				case ok && got.Unit != m.unit:
					t.Errorf("%s: %s in %s, want %s", w.name, m.name, got.Unit, m.unit)
				case !ok && !(m.name == "latency_p99_ms" && strings.Contains(text, "latency_p99_ms refused: ")):
					t.Errorf("%s trace=%s: %s missing:\n%s", w.name, traceArg, m.name, text)
				}
			}
		}
	}
}
