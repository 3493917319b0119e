package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"convexcache/internal/cached"
)

// env is one harness process's working state.
type env struct {
	root string // the checkout
	bin  string // the cmd/cached binary built from it
	work string // scratch directory for WALs and the layer passes' files
	dirs int
}

// scratchDir returns a fresh directory for one server session's WAL or a
// layer pass.
func (e *env) scratchDir() (string, error) {
	e.dirs++
	d := filepath.Join(e.work, fmt.Sprintf("s%d", e.dirs))
	return d, os.MkdirAll(d, 0o755)
}

// durSeries is the server's request-duration histogram of the cache route.
const durSeries = `http_request_duration_seconds_%s{route="/v1/cache"}`

// roundResult is what one round measured: a fresh server, the warmup, the
// measured phase, then the correctness checks.
type roundResult struct {
	setup, wall, verify, recovery time.Duration
	measKeys, allKeys             int // keys acknowledged in the measured phase / in the round
	posts, failed                 int // cache POSTs of the round, warmup included
	lat                           []time.Duration
	serverCPU, clientCPU          time.Duration // over the measured phase
	peakRSS, walBytes             int64
	missRatio, cost               float64
	srvSum, srvCount              float64 // measured-phase delta of durSeries
	problems                      []string
}

func (r *roundResult) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// netOverheadUS is the client's mean time per POST minus the server's mean
// time in the handler stack, in microseconds.
func (r *roundResult) netOverheadUS() float64 {
	var sum time.Duration
	for _, d := range r.lat {
		sum += d
	}
	client := float64(sum.Microseconds()) / float64(len(r.lat))
	return client - r.srvSum/r.srvCount*1e6
}

// runRound serves st on a fresh server and checks the outcome. An error is a
// failure of the harness or of start-up; failed checks land in problems.
// With shutdown the server is stopped with SIGTERM and must exit cleanly after
// replaying its whole session; otherwise it is killed, because that replay
// takes as long as verify and rounds repeat the same stream.
func runRound(e *env, w workload, st *stream, shutdown bool) (*roundResult, error) {
	dir, err := e.scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	srv, setup, err := startServer(e.bin, dir, w.serverArgs(walDir))
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c := newClient(srv.addr)
	defer c.close()
	r := &roundResult{setup: setup, lat: make([]time.Duration, len(st.meas))}

	acked, failed, ferr := c.drive(st.warm, nil)
	r.posts, r.failed, r.allKeys = len(st.warm), failed, acked
	if ferr != nil {
		r.problem("warmup POST failed: %v", ferr)
	}

	prom0, err := c.prom()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	self0, t0 := selfCPU(), time.Now()
	chunk := len(st.meas)
	if w.rebalance {
		chunk = max(1, st.rebalanceEvery/w.batch)
	}
	for lo := 0; lo < len(st.meas); lo += chunk {
		hi := min(lo+chunk, len(st.meas))
		acked, failed, ferr := c.drive(st.meas[lo:hi], r.lat[lo:hi])
		r.measKeys += acked
		r.failed += failed
		if ferr != nil {
			r.problem("POST failed: %v", ferr)
		}
		if w.rebalance && hi < len(st.meas) {
			var reb struct{ Quotas []int }
			if err := c.call(http.MethodPost, "/v1/cache/rebalance", &reb); err != nil {
				r.problem("%v", err)
			}
		}
	}
	r.wall = time.Since(t0)
	r.clientCPU = selfCPU() - self0
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	r.serverCPU = cpu1 - cpu0
	r.posts += len(st.meas)
	r.allKeys += r.measKeys
	prom1, err := c.prom()
	if err != nil {
		return nil, err
	}
	r.srvSum = prom1[fmt.Sprintf(durSeries, "sum")] - prom0[fmt.Sprintf(durSeries, "sum")]
	r.srvCount = prom1[fmt.Sprintf(durSeries, "count")] - prom0[fmt.Sprintf(durSeries, "count")]
	if r.peakRSS, err = procPeakRSS(srv.pid()); err != nil {
		return nil, err
	}

	var stats cached.Stats
	if err := c.call(http.MethodGet, "/v1/cache/stats", &stats); err != nil {
		return nil, err
	}
	if stats.Hits+stats.Misses != int64(r.allKeys) || stats.Requests != int64(r.allKeys) {
		r.problem("stats count %d hits + %d misses = %d requests; %d keys were acknowledged",
			stats.Hits, stats.Misses, stats.Requests, r.allKeys)
	}
	misses := make([]int64, len(stats.PerTenant))
	for i, t := range stats.PerTenant {
		misses[i] = t.Misses
	}
	if r.cost, err = convexCost(costSpecs, misses); err != nil {
		return nil, err
	}
	r.missRatio = float64(stats.Misses) / float64(max(stats.Requests, 1))
	if w.fsync != "" {
		if r.walBytes, err = dirBytes(walDir); err != nil {
			return nil, err
		}
	}

	if w.kill {
		srv.kill()
		srv, r.recovery, err = startServer(e.bin, dir, append(w.serverArgs(walDir), "-recover"))
		if err != nil {
			return nil, err
		}
		defer srv.kill()
		c.close()
		c = newClient(srv.addr)
		defer c.close()
		var rec cached.Stats
		if err := c.call(http.MethodGet, "/v1/cache/stats", &rec); err != nil {
			return nil, err
		}
		if a, b := signature(stats), signature(rec); a != b {
			r.problem("recovered stats differ from the pre-kill stats:\n  before %s\n  after  %s", a, b)
		}
	}

	t := time.Now()
	var rep cached.VerifyReport
	if err := c.call(http.MethodPost, "/v1/cache/verify", &rep); err != nil {
		r.problem("%v", err)
	} else if !rep.Clean {
		r.problem("verify not clean: %s", strings.Join(rep.Diffs, "; "))
	}
	r.verify = time.Since(t)
	c.close()
	if shutdown {
		if err := srv.stop(); err != nil {
			r.problem("%v", err)
		}
	}
	return r, nil
}

// bareSetup starts a server with the workload's flags and stops it again,
// returning the start-up time.
func bareSetup(e *env, w workload) (time.Duration, error) {
	dir, err := e.scratchDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, setup, err := startServer(e.bin, dir, w.serverArgs(filepath.Join(dir, "wal")))
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	return setup, srv.stop()
}

// signature is the engine state in a stats reply — the fields the crash drill
// compares across recoveries; WAL layout fields are not part of it.
func signature(st cached.Stats) string {
	var b strings.Builder
	fmt.Fprint(&b, st.Requests, st.Hits, st.Misses, st.Evictions)
	for _, t := range st.PerTenant {
		fmt.Fprint(&b, " t", t.Requests, t.Hits, t.Misses, t.Evictions)
	}
	for _, s := range st.Shards {
		fmt.Fprint(&b, " s", s.Requests, s.Occupancy, s.Pages)
	}
	return b.String()
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
