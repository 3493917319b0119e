// Package resilience is the overload-protection and fault-tolerance layer
// of the HTTP services. It supplies four cooperating pieces; internal/httpapi
// puts the first three in front of both internal/server and internal/cached,
// and internal/server runs the fourth:
//
//   - Limiter: a server-wide concurrency limiter with a bounded,
//     deadline-aware FIFO wait queue. Work that would overflow the queue or
//     wait past its deadline is shed immediately with a typed *Shed error
//     carrying a Retry-After hint, so the HTTP layer can answer
//     503 + Retry-After instead of stacking goroutines.
//   - Breaker: a circuit breaker for the expensive endpoints. Sustained
//     failures (or over-latency responses) trip it open; after a cooldown
//     it half-opens and lets a bounded number of probe requests through
//     before closing again.
//   - RateLimiter: per-client token buckets keyed on a caller identity, so
//     one noisy tenant cannot starve the shared wait queue.
//   - Jobs: an async job subsystem running long replays on a bounded worker
//     pool through sim.RunContext. A cancelled or crashed job resumes by
//     replaying from step 0; the policies are deterministic, so its result
//     is bit-identical to an uninterrupted run's.
//
// Every component optionally reports into an internal/obs Registry; all
// shed decisions share the resilience_shed_total{reason="..."} counter
// family so dashboards see one overload signal regardless of which stage
// rejected the work.
package resilience

import (
	"fmt"
	"time"

	"convexcache/internal/obs"
)

// Shed reasons, machine-readable; they appear in the HTTP error envelope's
// "reason" field and in the resilience_shed_total counter labels.
const (
	// ReasonQueueFull: the limiter's wait queue was at capacity.
	ReasonQueueFull = "queue_full"
	// ReasonQueueTimeout: the request waited MaxWait without getting a slot.
	ReasonQueueTimeout = "queue_timeout"
	// ReasonDeadline: the request's deadline left no time to wait (or
	// expired while queued).
	ReasonDeadline = "deadline"
	// ReasonCircuitOpen: the endpoint's circuit breaker is open.
	ReasonCircuitOpen = "circuit_open"
	// ReasonRateLimited: the per-client token bucket is empty.
	ReasonRateLimited = "rate_limited"
	// ReasonJobStoreFull: the job store has no evictable slot left.
	ReasonJobStoreFull = "job_store_full"
	// ReasonShardDown: a live-cache shard is rebuilding after a panic, so
	// the requests routed to it were shed.
	ReasonShardDown = "shard_down"
)

// Shed is the typed rejection returned by every admission stage. It tells
// the transport layer why the work was refused and how long the caller
// should back off.
type Shed struct {
	// Reason is one of the Reason* constants.
	Reason string
	// RetryAfter is the suggested client back-off; always > 0.
	RetryAfter time.Duration
	// Detail is the human-readable message.
	Detail string
}

func (s *Shed) Error() string {
	return fmt.Sprintf("resilience: shed (%s): %s", s.Reason, s.Detail)
}

// shedCounter returns the shed counter for reason, or nil when reg is nil.
func shedCounter(reg *obs.Registry, reason string) *obs.Counter {
	if reg == nil {
		return nil
	}
	return reg.Counter(fmt.Sprintf("resilience_shed_total{reason=%q}", reason))
}

func countShed(reg *obs.Registry, reason string) {
	if c := shedCounter(reg, reason); c != nil {
		c.Inc()
	}
}
