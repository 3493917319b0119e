package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"convexcache/internal/cached"
	"convexcache/internal/fault"
	"convexcache/internal/mrclive"
	"convexcache/internal/runspec"
	"convexcache/internal/trace"
	streams "convexcache/internal/workload"
)

// Every workload serves the same cache: k pages, four tenants with the cost
// mix below, a quarter of requests PUT. PUT and GET have identical residency
// semantics, so writes are stressed through the WAL workloads instead.
const (
	capacity = 4096
	tenants  = 4
	putFrac  = 0.25
	// rebalanceKeys is the adaptive workload's controller period in keys;
	// the layer passes call RebalanceOnce at the same period on every
	// workload.
	rebalanceKeys = 1 << 18
)

// costSpecs are the per-tenant convex costs, in costfn.Parse syntax.
var costSpecs = []string{"monomial:1,2", "linear:2", "monomial:1,2", "linear:4"}

// mixedStreams is a working set far larger than k: about two thirds of
// requests miss.
var mixedStreams = []string{"zipf:8192,0.9", "zipf:8192,1.1", "uniform:4096", "hotset:4096,64,0.9,5000"}

// workload is one traffic mix and the server configuration it runs against.
// Key counts are per round at -scale 1; a run repeats rounds, each on a fresh
// server, until its time budget is spent.
type workload struct {
	name     string
	batch    int    // keys per POST
	shards   int    // -shards
	fsync    string // WAL -fsync policy; empty runs without a WAL
	adaptive bool   // partition mode with the live MRC controller
	warmup   int    // keys sent before the measured phase
	keys     int    // measured keys
	// phases holds one stream spec per tenant for each phase; the measured
	// keys split evenly across phases and the warmup uses the first.
	phases [][]string
	// rebalance sends POST /v1/cache/rebalance every rebalanceKeys measured
	// keys, triggered by count rather than by a timer.
	rebalance bool
	// kill sends SIGKILL after the last acknowledgement, restarts the server
	// with -recover and verifies the recovered state.
	kill bool
}

// workloads stress different layers; BENCHMARK.json and README.md give why
// each was chosen.
var workloads = []workload{
	// Per-key layers: parse, intern/route/mailbox, victim selection, WAL
	// encoding and writing. About two thirds of requests miss.
	{
		name:   "bulk",
		batch:  1024,
		shards: 2,
		fsync:  "interval",
		warmup: 1 << 18,
		keys:   6 << 20,
		phases: [][]string{mixedStreams},
	},
	// Per-POST fixed costs: net/http, middleware and access log, admission,
	// the mailbox round trip, the JSON reply. Nearly every request hits.
	{
		name:   "point",
		batch:  1,
		shards: 1,
		warmup: 5_000,
		keys:   80_000,
		phases: [][]string{{"zipf:1000,0.9", "zipf:1000,0.9", "zipf:1000,0.9", "zipf:1000,0.9"}},
	},
	// A group commit and an fsync per batch, then recovery of the same log.
	{
		name:   "durable",
		batch:  16,
		shards: 2,
		fsync:  "always",
		keys:   240_000,
		phases: [][]string{mixedStreams},
		kill:   true,
	},
	// Partition mode: quota LRU, the per-request MRC sampler and the
	// controller across a phase shift halfway through.
	{
		name:     "adaptive",
		batch:    256,
		shards:   2,
		adaptive: true,
		keys:     2 << 20,
		phases: [][]string{
			{"zipf:4000,0.9", "zipf:4000,0.9", "zipf:64,0.5", "zipf:64,0.5"},
			{"zipf:64,0.5", "zipf:64,0.5", "zipf:4000,0.9", "zipf:4000,0.9"},
		},
		rebalance: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverArgs are the `cached serve` flags of the workload (without -addr).
func (w workload) serverArgs(walDir string) []string {
	a := []string{"-k", strconv.Itoa(capacity), "-shards", strconv.Itoa(w.shards), "-tenants", strconv.Itoa(tenants)}
	for _, c := range costSpecs {
		a = append(a, "-costs", c)
	}
	if w.fsync != "" {
		a = append(a, "-wal", walDir, "-fsync", w.fsync)
	}
	if w.adaptive {
		a = append(a, "-adaptive", "-rebalance-every", "0", "-mrc-epoch", "4096", "-mrc-window", "8")
	}
	return a
}

// serviceConfig builds the in-process cached.Config equivalent to
// serverArgs, the way cmd/cached resolves its flags. fs, when non-nil,
// carries the WAL.
func (w workload) serviceConfig(walDir string, fs fault.FS) (cached.Config, error) {
	costs, err := runspec.Costs(costSpecs, tenants)
	if err != nil {
		return cached.Config{}, err
	}
	cfg := cached.Config{K: capacity, Shards: w.shards, Tenants: tenants}
	if w.adaptive {
		cfg.Quotas = make([]int, tenants)
		for t := range cfg.Quotas {
			cfg.Quotas[t] = capacity / tenants
			if t < capacity%tenants {
				cfg.Quotas[t]++
			}
		}
		cfg.Costs = costs
		cfg.ReserveFloor = 1
		cfg.MRC = &mrclive.Config{MaxSize: capacity, Rate: 1, Seed: 1, WindowEpochs: 8, EpochRequests: 4096}
	} else {
		sc := runspec.Scenario{Policies: []runspec.PolicySpec{{Name: "alg"}}, Seed: 1}
		compiled, err := sc.CompilePolicies(capacity, tenants, costs)
		if err != nil {
			return cached.Config{}, err
		}
		cfg.NewPolicy = compiled[0].New
	}
	if w.fsync != "" {
		cfg.WAL = &cached.WALConfig{Dir: walDir, Fsync: cached.FsyncPolicy(w.fsync), FS: fs}
	}
	return cfg, nil
}

// post is one POST /v1/cache body and the number of keys it carries.
type post struct {
	body []byte
	keys int
}

// stream is one round's requests: warmup POSTs, then measured POSTs, plus the
// tenant and page of the first keys in send order, as many as the in-process
// layer pass takes.
type stream struct {
	warm, meas     []post
	tenant         []trace.Tenant
	page           []trace.PageID
	rebalanceEvery int // rebalanceKeys at this scale
}

// scaled returns n·scale rounded to whole POSTs of batch keys (at least one
// POST when n > 0).
func scaled(n, batch int, scale float64) int {
	if n == 0 {
		return 0
	}
	return max(1, int(math.Round(float64(n)*scale/float64(batch))))
}

// generate builds the round's requests from the seed: tenant i draws pages
// from its own streams.ParseStream stream, the next tenant is picked by rate
// from a seeded PRNG, and each key is the tenant-local page "p<n>".
func generate(w workload, seed int64, scale float64) (*stream, error) {
	warmPosts := scaled(w.warmup, w.batch, scale)
	measPosts := scaled(w.keys, w.batch, scale)
	total := (warmPosts + measPosts) * w.batch
	phaseKeys := measPosts * w.batch / len(w.phases)

	type tstream struct {
		s    streams.Stream
		rate float64
	}
	phases := make([][]tstream, len(w.phases))
	for p, specs := range w.phases {
		for t, spec := range specs {
			s, rate, err := streams.ParseStream(spec, seed+int64(t)*1001+int64(p)*7919)
			if err != nil {
				return nil, err
			}
			phases[p] = append(phases[p], tstream{s, rate})
		}
	}

	rng := rand.New(rand.NewSource(seed))
	kept := min(total, layerMaxKeys)
	st := &stream{
		tenant:         make([]trace.Tenant, 0, kept),
		page:           make([]trace.PageID, 0, kept),
		rebalanceEvery: scaled(rebalanceKeys, 1, scale),
	}
	arena := make([]byte, 0, total*13)
	var key []byte
	var posts []post
	start := 0
	for i := 0; i < total; i++ {
		phase := 0
		if m := i - warmPosts*w.batch; m > 0 && phaseKeys > 0 {
			phase = min(m/phaseKeys, len(phases)-1)
		}
		ts := phases[phase]
		sum := 0.0
		for _, s := range ts {
			sum += s.rate
		}
		u := rng.Float64() * sum
		t := 0
		for u > ts[t].rate && t < len(ts)-1 {
			u -= ts[t].rate
			t++
		}
		op := cached.OpGet
		if rng.Float64() < putFrac {
			op = cached.OpPut
		}
		n := ts[t].s.Next()
		key = strconv.AppendInt(append(key[:0], 'p'), n, 10)
		arena = cached.FormatRequest(arena, cached.Request{Op: op, Tenant: trace.Tenant(t), Key: key})
		if i < kept {
			st.tenant = append(st.tenant, trace.Tenant(t))
			st.page = append(st.page, trace.PageID(n*tenants+int64(t)))
		}
		if (i+1)%w.batch == 0 {
			posts = append(posts, post{body: arena[start:len(arena):len(arena)], keys: w.batch})
			start = len(arena)
		}
	}
	if len(posts) != warmPosts+measPosts {
		return nil, fmt.Errorf("generated %d posts, want %d", len(posts), warmPosts+measPosts)
	}
	st.warm, st.meas = posts[:warmPosts], posts[warmPosts:]
	return st, nil
}

// countKeys returns the number of keys in posts.
func countKeys(posts []post) int {
	n := 0
	for _, p := range posts {
		n += p.keys
	}
	return n
}
