package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"convexcache/internal/costfn"
)

// minBeyond is the number of samples a reported percentile needs above it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and the number of
// samples ranked above it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return sorted[i], n - 1 - i
}

// latencyMetric reports the q-quantile of sorted latencies in milliseconds
// with its sample count, or an error when fewer than minBeyond samples lie
// above it.
func latencyMetric(name string, sorted []float64, q float64) (metric, error) {
	v, beyond := percentile(sorted, q)
	if beyond < minBeyond {
		return metric{}, fmt.Errorf("%s refused: %d samples, %d above it, need %d", name, len(sorted), beyond, minBeyond)
	}
	return metric{name: name, value: v, note: fmt.Sprintf("n=%d, %d above", len(sorted), beyond)}, nil
}

// latWindow is the most POSTs in one latency window: each round's measured
// POSTs split into equal runs of consecutive POSTs, at most this many each.
const latWindow = 10_000

// windowLatency returns the lower quartile over windows (nearest rank) of the
// q-quantile of a window's POST latencies, in milliseconds, with the sample
// count of the window it comes from; rounds holds each round's latencies in
// send order. It refuses, as latencyMetric does, when any window has too few
// samples above the quantile.
//
// The shared host makes 1-key POSTs up to 70% slower in spells of under a
// second to a few minutes. Over a whole run a percentile moves with the
// share of slow time, and the median jumps between the fast and the slow
// level as that share crosses a half. Interference only adds time, so a low
// quantile over short windows stays near the fast level while a quarter of
// the run has it. The lower quartile rather than the minimum, because how
// low the minimum reaches depends on how rarely the host left the run alone.
func windowLatency(name string, rounds [][]time.Duration, q float64) (metric, error) {
	var windows []metric
	for _, lat := range rounds {
		k := (len(lat) + latWindow - 1) / latWindow
		for i := 0; i < k; i++ {
			m, err := latencyMetric(name, sortedMS(lat[i*len(lat)/k:(i+1)*len(lat)/k]), q)
			if err != nil {
				return metric{}, err
			}
			windows = append(windows, m)
		}
	}
	if len(windows) == 0 {
		return latencyMetric(name, nil, q)
	}
	sort.SliceStable(windows, func(i, j int) bool { return windows[i].value < windows[j].value })
	m := windows[int(math.Ceil(0.25*float64(len(windows))))-1]
	m.note = fmt.Sprintf("lower quartile of %d windows; %s", len(windows), m.note)
	return m, nil
}

// sortedMS returns latencies in milliseconds, ascending.
func sortedMS(lat []time.Duration) []float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), which is how run-to-run spread is judged. Needs two or more
// values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// convexCost returns Σ_i f_i(misses_i), the paper's objective, with f_i
// parsed from specs[i].
func convexCost(specs []string, misses []int64) (float64, error) {
	if len(specs) != len(misses) {
		return 0, fmt.Errorf("convex cost: %d cost specs for %d tenants", len(specs), len(misses))
	}
	sum := 0.0
	for i, spec := range specs {
		f, err := costfn.Parse(spec)
		if err != nil {
			return 0, err
		}
		sum += f.Value(float64(misses[i]))
	}
	return sum, nil
}
