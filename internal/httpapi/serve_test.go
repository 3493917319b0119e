package httpapi

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// serveOne starts Serve on a loopback listener with h, and a client request
// to it. It returns Serve's exit code and the request's outcome on channels.
func serveOne(t *testing.T, ctx context.Context, h http.HandlerFunc, grace time.Duration, srv *http.Server) (<-chan int, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Handler = h
	code := make(chan int, 1)
	go func() { code <- Serve(ctx, srv, ln, grace, quiet) }()
	reqErr := make(chan error, 1)
	go func() {
		c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := c.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			resp.Body.Close()
		}
		reqErr <- err
	}()
	return code, reqErr
}

func TestServeDrainsInFlightRequest(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	srv := &http.Server{}
	draining := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(draining) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, reqErr := serveOne(t, ctx, func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
	}, 10*time.Second, srv)

	<-started
	cancel()
	<-draining // the listener is closed and the request is still in flight
	close(release)
	if err := <-reqErr; err != nil {
		t.Errorf("in-flight request cut off by the drain: %v", err)
	}
	if c := <-code; c != 0 {
		t.Errorf("Serve = %d after a complete drain, want 0", c)
	}
}

func TestServeListenerFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if c := Serve(context.Background(), &http.Server{}, ln, time.Second, quiet); c != 1 {
		t.Errorf("Serve on a closed listener = %d, want 1", c)
	}
}

func TestServeForcesCloseAfterGrace(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, reqErr := serveOne(t, ctx, func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-release:
		case <-r.Context().Done(): // the forced close ends the connection
		}
	}, 50*time.Millisecond, &http.Server{})

	<-started
	cancel()
	if c := <-code; c != 1 {
		t.Errorf("Serve = %d with a handler running past grace, want 1", c)
	}
	select {
	case err := <-reqErr:
		if err == nil {
			t.Error("request outliving grace got a response; want its connection closed")
		}
	case <-time.After(10 * time.Second):
		t.Error("request still open 10s after Serve returned; want its connection closed")
	}
}
