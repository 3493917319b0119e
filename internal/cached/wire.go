package cached

import (
	"bytes"
	"fmt"

	"convexcache/internal/trace"
)

// Wire grammar of the cache endpoint — one request per line, fields joined
// by exactly one space:
//
//	line   := op " " tenant " " key
//	op     := "GET" | "PUT"
//	tenant := decimal integer, no sign, no leading zeros (except "0")
//	key    := 1..MaxKeyLen printable non-space ASCII bytes (0x21..0x7e)
//
// The grammar is strict on purpose: a deterministic parse/format round-trip
// (FormatRequest(ParseRequest(x)) == x) keeps the fuzz target honest and the
// request logs reproducible. Lines end in "\n"; a trailing "\r" is stripped
// so CRLF clients work. Blank lines are ignored.

// MaxKeyLen bounds the key length accepted on the wire.
const MaxKeyLen = 256

// maxBatchLines bounds how many request lines one body may carry.
const maxBatchLines = 1 << 20

// ParseRequest parses one line (without the trailing newline). tenants > 0
// bounds the accepted tenant range; tenants <= 0 skips the range check
// (used by the fuzz target, which has no configured universe).
func ParseRequest(line []byte, tenants int) (Request, error) {
	var one [1]Request
	reqs, err := appendRequest(one[:0], line, tenants)
	if err != nil {
		return Request{}, err
	}
	return reqs[0], nil
}

// appendRequest parses one line (without the trailing newline) and appends
// its request to reqs. It is the grammar's only implementation: ParseRequest
// and the batch parser both call it.
func appendRequest(reqs []Request, line []byte, tenants int) ([]Request, error) {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return reqs, fmt.Errorf("cached: missing op separator in %q", clip(line))
	}
	var op Op
	switch {
	case bytes.Equal(line[:sp], []byte("GET")):
		op = OpGet
	case bytes.Equal(line[:sp], []byte("PUT")):
		op = OpPut
	default:
		return reqs, fmt.Errorf("cached: unknown op %q", clip(line[:sp]))
	}
	rest := line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return reqs, fmt.Errorf("cached: missing tenant separator in %q", clip(line))
	}
	tenant, err := parseTenant(rest[:sp])
	if err != nil {
		return reqs, err
	}
	if tenants > 0 && int(tenant) >= tenants {
		return reqs, fmt.Errorf("cached: tenant %d out of range [0,%d)", tenant, tenants)
	}
	key := rest[sp+1:]
	if len(key) == 0 {
		return reqs, fmt.Errorf("cached: empty key in %q", clip(line))
	}
	if len(key) > MaxKeyLen {
		return reqs, fmt.Errorf("cached: key longer than %d bytes", MaxKeyLen)
	}
	for _, c := range key {
		if c < 0x21 || c > 0x7e {
			return reqs, fmt.Errorf("cached: key byte %#02x outside printable ASCII", c)
		}
	}
	return append(reqs, Request{Op: op, Tenant: tenant, Key: key}), nil
}

// parseTenant parses a canonical non-negative decimal: digits only, no
// leading zeros unless the value is exactly "0", bounded well below
// overflow.
func parseTenant(b []byte) (trace.Tenant, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("cached: empty tenant")
	}
	if len(b) > 9 {
		return 0, fmt.Errorf("cached: tenant %q too long", clip(b))
	}
	if b[0] == '0' && len(b) > 1 {
		return 0, fmt.Errorf("cached: tenant %q has a leading zero", clip(b))
	}
	var v int
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("cached: tenant %q is not a decimal integer", clip(b))
		}
		v = v*10 + int(c-'0')
	}
	return trace.Tenant(v), nil
}

// ParseBatch parses a newline-separated request body. Errors name the
// offending 1-based line. The returned requests alias body — callers must
// keep body alive until the batch is applied (Apply copies keys it retains).
// The result is allocated once, sized from the body's line count and
// length.
func ParseBatch(body []byte, tenants int) ([]Request, error) {
	reqs, err := appendBatch(make([]Request, 0, batchCap(body)), body, tenants)
	if err != nil {
		return nil, err
	}
	return reqs, nil
}

// minLineBytes is the length of the shortest valid line with its newline,
// "GET 0 k\n": a body of n bytes carries at most n/minLineBytes + 1 requests.
const minLineBytes = 8

// batchCap bounds the requests body can carry: at most one per line, one per
// minLineBytes bytes and maxBatchLines in all. appendBatch never grows a
// slice with that much spare capacity.
func batchCap(body []byte) int {
	lines := bytes.Count(body, []byte("\n"))
	if len(body) > 0 && body[len(body)-1] != '\n' {
		lines++ // a last line without a newline
	}
	return min(lines, len(body)/minLineBytes+1, maxBatchLines)
}

// appendBatch parses body line by line into reqs and returns the extended
// slice, also on error, when it holds the requests before the bad line.
func appendBatch(reqs []Request, body []byte, tenants int) ([]Request, error) {
	for lineNo := 1; len(body) > 0; lineNo++ {
		if lineNo > maxBatchLines {
			return reqs, fmt.Errorf("cached: batch exceeds %d lines", maxBatchLines)
		}
		line := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line = body[:nl]
			body = body[nl+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		var err error
		if reqs, err = appendRequest(reqs, line, tenants); err != nil {
			return reqs, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return reqs, nil
}

// FormatRequest appends the canonical wire form of r (with trailing newline)
// to dst. It is the inverse of ParseRequest for every request ParseRequest
// accepts.
func FormatRequest(dst []byte, r Request) []byte {
	if r.Op == OpPut {
		dst = append(dst, "PUT "...)
	} else {
		dst = append(dst, "GET "...)
	}
	dst = fmt.Appendf(dst, "%d ", r.Tenant)
	dst = append(dst, r.Key...)
	return append(dst, '\n')
}

// clip bounds error-message echoes of untrusted input.
func clip(b []byte) string {
	const max = 32
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
