package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"convexcache/internal/cached"
)

// conns is the closed-loop client's connection count: each connection sends
// its next POST only after the previous reply, like tenant app servers that
// wait for each answer.
const conns = 2

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// server is one `cached serve` child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	addr string   // 127.0.0.1:<port>
	log  *os.File // its stdout and stderr, already unlinked
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// startServer execs bin serve with args on a free loopback port and returns
// once /healthz first answers 200, with the time from exec to that answer.
//
// The server's output, an access-log line per request, goes to a file in dir
// that is unlinked at once and closed when the server has ended, so the
// kernel drops its pages instead of writing them back to disk on the CPUs
// the benchmark measures. A pipe would cost the harness a wake-up per
// request instead.
func startServer(bin, dir string, args []string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	log, err := os.CreateTemp(dir, "server-*.log")
	if err != nil {
		return nil, 0, err
	}
	if err := os.Remove(log.Name()); err != nil {
		log.Close()
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr, "-log-format", "json"}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the harness, even when the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, log: log, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	ready, err := s.waitHealthy(start)
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, ready, nil
}

// tailBytes is how much of the end of the server's output the harness reads:
// where start-up failures and the shutdown lines are.
const tailBytes = 16 << 10

// logTail returns the last tailBytes bytes of the server's output so far.
func (s *server) logTail() string {
	fi, err := s.log.Stat()
	if err != nil {
		return fmt.Sprintf("(server log: %v)", err)
	}
	off := max(0, fi.Size()-tailBytes)
	b := make([]byte, fi.Size()-off)
	n, err := s.log.ReadAt(b, off)
	if err != nil && err != io.EOF {
		return fmt.Sprintf("(server log: %v)", err)
	}
	return string(b[:n])
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(start time.Time) (time.Duration, error) {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	for time.Since(start) < time.Minute {
		select {
		case <-s.done:
			return 0, fmt.Errorf("server exited during start-up (%v):\n%s", s.err, s.logTail())
		default:
		}
		if resp, err := c.Get("http://" + s.addr + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return 0, fmt.Errorf("server not healthy a minute after exec:\n%s", s.logTail())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// shutdownClean is the line cmd/cached logs when its shutdown replay of the
// whole session matched the live counters.
var shutdownClean = regexp.MustCompile(`"msg":"shutdown verify".*"clean":true`)

// stop sends SIGTERM and requires a clean exit: code 0 and a clean shutdown
// verify in the log.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(2 * time.Minute):
		s.kill()
		return errors.New("server still running two minutes after SIGTERM")
	}
	log := s.logTail()
	if s.err != nil {
		return fmt.Errorf("server exit after SIGTERM: %v\n%s", s.err, log)
	}
	if !shutdownClean.MatchString(log) {
		return fmt.Errorf("server log has no clean shutdown verify:\n%s", log)
	}
	return nil
}

// kill sends SIGKILL, waits for the process to end and closes its log; once
// the process has ended it only closes the log, which may already be closed.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
		<-s.done
	}
	_ = s.log.Close()
}

// client is the harness's HTTP/1.1 client for one server: conns keep-alive
// connections, each used by one goroutine at a time, which also carry the
// control requests between load phases. It writes each request in one write
// and parses replies with net/http's response reader. On two shared CPUs,
// net/http's Transport cost the client more CPU per POST than the server
// spent serving it, and the two processes' contention set the numbers.
type client struct {
	addr  string
	conns [conns]*httpConn
}

type httpConn struct {
	nc  net.Conn
	r   *bufio.Reader
	buf []byte
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	for i, hc := range c.conns {
		if hc != nil {
			hc.nc.Close()
			c.conns[i] = nil
		}
	}
}

// requestTimeout bounds one request, so a hung server fails the run instead
// of stalling it.
const requestTimeout = 2 * time.Minute

// roundTrip sends one request on connection i, dialing it first if needed,
// and returns the reply's status and body. A connection that fails is
// closed; the next request on it dials again.
func (c *client) roundTrip(i int, method, path string, body []byte) (int, []byte, error) {
	hc := c.conns[i]
	if hc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		hc = &httpConn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}
		c.conns[i] = hc
	}
	b := append(hc.buf[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\nContent-Type: text/plain\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	hc.buf = append(b, body...)
	status, reply, err := hc.exchange()
	if err != nil {
		hc.nc.Close()
		c.conns[i] = nil
	}
	return status, reply, err
}

func (hc *httpConn) exchange() (int, []byte, error) {
	if err := hc.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := hc.nc.Write(hc.buf); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(hc.r, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	return c.roundTrip(0, method, path, body)
}

// call sends a request that must answer 200 and decodes the JSON reply into v.
func (c *client) call(method, path string, v any) error {
	code, body, err := c.do(method, path, nil)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, clip(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// send posts one cache batch and checks that the reply accounts for every
// key, with no retry: a 429, a 5xx or a transport error is a failure.
func (c *client) send(i int, p post) error {
	code, body, err := c.roundTrip(i, http.MethodPost, "/v1/cache", p.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, clip(body))
	}
	var cr cached.CacheResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if cr.Requests != p.keys || cr.Hits+cr.Misses != p.keys || len(cr.Results) != p.keys {
		return fmt.Errorf("reply accounts for %d requests (%d hits, %d misses, %d results), sent %d",
			cr.Requests, cr.Hits, cr.Misses, len(cr.Results), p.keys)
	}
	return nil
}

// drive sends posts over conns closed-loop connections and returns the keys
// acknowledged and the POSTs that failed. When lat is non-nil, lat[i]
// receives the client-observed time of posts[i].
func (c *client) drive(posts []post, lat []time.Duration) (acked, failed int, firstErr error) {
	var next, ackedN, failedN atomic.Int64
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(posts) {
					return
				}
				t := time.Now()
				err := c.send(i, posts[j])
				if lat != nil {
					lat[j] = time.Since(t)
				}
				if err != nil {
					failedN.Add(1)
					once.Do(func() { firstErr = err })
					continue
				}
				ackedN.Add(int64(posts[j].keys))
			}
		}()
	}
	wg.Wait()
	return int(ackedN.Load()), int(failedN.Load()), firstErr
}

// prom fetches /metrics.
func (c *client) prom() (map[string]float64, error) {
	code, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(body)
}

// parseProm reads the Prometheus text exposition into a map from series (the
// name with its label block, as printed) to value.
func parseProm(b []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// procCPU returns the CPU time (user plus system) the process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parseProcStat(b)
	return time.Duration(u+s) * clockTick, err
}

// parseProcStat returns utime and stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	if utime, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// procPeakRSS returns the process's peak resident set size (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return kb << 10, err
}

// parseStatusKB returns the kB value of field in the contents of
// /proc/<pid>/status.
func parseStatusKB(b []byte, field string) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// selfCPU returns the CPU time (user plus system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func clip(b []byte) string {
	if len(b) > 256 {
		b = b[:256]
	}
	return string(bytes.TrimSpace(b))
}
