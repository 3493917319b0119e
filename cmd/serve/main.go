// Command serve runs the convexcache HTTP service (see internal/server for
// the API) with production lifecycle behavior: structured logs, Prometheus
// metrics on /metrics, an optional pprof debug listener, and graceful
// shutdown — SIGINT/SIGTERM stops accepting connections, drains in-flight
// requests for up to -shutdown-grace, then exits 0.
//
// Overload protection (internal/resilience) is tunable from the command
// line: the server-wide concurrency limiter and its FIFO wait queue
// (-max-concurrent, -queue-depth, -queue-wait), per-client rate limiting
// (-rate-rps, -rate-burst), the per-endpoint circuit breakers
// (-breaker-failures, -breaker-open-for), and the async job subsystem
// (-job-workers, -job-store); a resumed job replays from step 0. -fault
// enables seeded fault injection for chaos drills, e.g.
// -fault "seed=7,latency=20ms,latency_p=0.3,error_p=0.2,panic_p=0.05".
//
// Usage:
//
//	serve -addr :8080 [-pprof 127.0.0.1:6060] [-log-format text|json]
//	      [-read-timeout 1m] [-write-timeout 2m] [-idle-timeout 2m]
//	      [-shutdown-grace 30s] [-max-body 16777216]
//	      [-max-concurrent N] [-queue-depth N] [-queue-wait 10s]
//	      [-rate-rps R] [-rate-burst B]
//	      [-breaker-failures N] [-breaker-open-for 10s]
//	      [-job-workers N] [-job-store N]
//	      [-fault "seed=7,error_p=0.2,..."]
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"convexcache/internal/fault"
	"convexcache/internal/httpapi"
	"convexcache/internal/obs"
	"convexcache/internal/resilience"
	"convexcache/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		pprofAddr     = flag.String("pprof", "", "pprof debug listen address (e.g. 127.0.0.1:6060); empty disables")
		logFormat     = flag.String("log-format", "text", "log format: text or json")
		readTimeout   = flag.Duration("read-timeout", time.Minute, "max duration for reading a request")
		writeTimeout  = flag.Duration("write-timeout", 2*time.Minute, "max duration for writing a response")
		idleTimeout   = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time")
		headerTimeout = flag.Duration("read-header-timeout", 10*time.Second, "max duration for reading request headers")
		shutdownGrace = flag.Duration("shutdown-grace", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		maxBody       = flag.Int64("max-body", httpapi.MaxBodyBytes, "request body cap in bytes")

		maxConcurrent = flag.Int("max-concurrent", 0, "concurrent expensive requests (0 = GOMAXPROCS)")
		queueDepth    = flag.Int("queue-depth", 0, "wait-queue slots behind the concurrency limit (0 = default)")
		queueWait     = flag.Duration("queue-wait", 0, "max time a request may wait for a slot (0 = default 10s)")
		rateRPS       = flag.Float64("rate-rps", 0, "per-client sustained requests/second on expensive endpoints (0 disables)")
		rateBurst     = flag.Float64("rate-burst", 0, "per-client burst allowance (0 = 2x rate-rps)")
		breakFails    = flag.Int("breaker-failures", 0, "consecutive failures that open an endpoint's circuit (0 = default 5)")
		breakOpenFor  = flag.Duration("breaker-open-for", 0, "cooldown before an open circuit half-opens (0 = default 10s)")
		jobWorkers    = flag.Int("job-workers", 0, "async job worker-pool size (0 = default 2)")
		jobStore      = flag.Int("job-store", 0, "max job records retained (0 = default 256)")
		faultSpec     = flag.String("fault", "", `fault-injection spec for chaos drills, e.g. "seed=7,latency=20ms,latency_p=0.3,error_p=0.2,panic_p=0.05"`)
	)
	flag.Parse()

	logger, err := httpapi.NewLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	reg := obs.NewRegistry()
	cfg := server.Config{
		Logger:       logger,
		Registry:     reg,
		MaxBodyBytes: *maxBody,
		Limiter: resilience.LimiterConfig{
			MaxConcurrent: *maxConcurrent,
			MaxQueue:      *queueDepth,
			MaxWait:       *queueWait,
		},
		RateLimit: resilience.RateLimiterConfig{RPS: *rateRPS, Burst: *rateBurst},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *breakFails,
			OpenFor:          *breakOpenFor,
		},
		Jobs: resilience.JobsConfig{
			Workers: *jobWorkers,
			MaxJobs: *jobStore,
		},
	}
	if *faultSpec != "" {
		fcfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		inj := fault.New(fcfg, reg)
		cfg.Fault = inj.Middleware
		logger.Warn("fault injection enabled", "spec", *faultSpec)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listener failed", "err", err)
		return 1
	}
	svc := server.NewService(cfg)
	defer svc.Close()
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: *headerTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// The debug listener is separate from the API listener so pprof is
	// never exposed on the public port.
	var debugSrv *http.Server
	if *pprofAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *pprofAddr, Handler: dm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	ctx, stop := httpapi.SignalContext()
	defer stop()
	logger.Info("convexcache API listening", "addr", *addr)
	code := httpapi.Serve(ctx, srv, ln, *shutdownGrace, logger)
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	logger.Info("shutdown complete")
	return code
}
