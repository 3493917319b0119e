package httpapi

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// NewLogger returns the process logger, writing to stderr in the -log-format
// given: "text" or "json".
func NewLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// SignalContext returns a context that ends at the first SIGINT or SIGTERM.
// From then on both signals have their default action again, so a second
// one kills a process that is still draining.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// Serve serves srv on ln until ctx ends, then stops accepting connections
// and drains in-flight requests for up to grace. It returns 0 once the
// drain completes, and 1 when the listener fails or when grace runs out,
// in which case it closes the connections still open. A nil srv.ErrorLog
// logs to log at warn level.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration, log *slog.Logger) int {
	if srv.ErrorLog == nil {
		srv.ErrorLog = slog.NewLogLogger(log.Handler(), slog.LevelWarn)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		log.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	log.Info("shutting down, draining in-flight requests", "grace", grace.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Error("drain incomplete, forcing close", "err", err)
		_ = srv.Close()
		code = 1
	}
	<-errCh // srv.Serve returns once Shutdown or Close has closed ln
	return code
}
