package cached

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCachedRequest fuzzes the wire request parser. Properties:
//
//   - no panic on any input (the parser faces the network);
//   - an accepted line round-trips byte-identically through FormatRequest
//     (the grammar is canonical), and re-parses to the same request;
//   - every accepted request satisfies the documented invariants (known op,
//     tenant in range, key length and charset bounds).
func FuzzCachedRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte("GET 0 key"),
		[]byte("PUT 1 t1-key-42"),
		[]byte("GET 7 a"),
		[]byte("PUT 0 " + string(bytes.Repeat([]byte("x"), MaxKeyLen))),
		[]byte("GET 12345678 deep-tenant"),
		[]byte("get 0 lowercase-op"),
		[]byte("GET  0 double-space"),
		[]byte("GET 0"),
		[]byte("GET 01 leading-zero"),
		[]byte("GET -1 negative"),
		[]byte("PUT 0 key with space"),
		[]byte("PUT 0 bad\x7fbyte"),
		[]byte("DEL 0 unknown-op"),
		[]byte(""),
		[]byte("GET 999999999999 overflow"),
	}
	for _, s := range seeds {
		f.Add(s, 8)
	}
	f.Fuzz(func(t *testing.T, line []byte, tenants int) {
		r, err := ParseRequest(line, tenants)
		if err != nil {
			return
		}
		if r.Op != OpGet && r.Op != OpPut {
			t.Fatalf("accepted unknown op %q from %q", r.Op, line)
		}
		if tenants > 0 && (r.Tenant < 0 || int(r.Tenant) >= tenants) {
			t.Fatalf("accepted out-of-range tenant %d from %q (tenants=%d)", r.Tenant, line, tenants)
		}
		if r.Tenant < 0 {
			t.Fatalf("accepted negative tenant %d from %q", r.Tenant, line)
		}
		if len(r.Key) == 0 || len(r.Key) > MaxKeyLen {
			t.Fatalf("accepted key of length %d from %q", len(r.Key), line)
		}
		for _, c := range r.Key {
			if c < 0x21 || c > 0x7e {
				t.Fatalf("accepted key byte %#02x from %q", c, line)
			}
		}
		// Canonical round-trip: format, strip the newline, byte-compare.
		wire := FormatRequest(nil, r)
		if !bytes.Equal(wire[:len(wire)-1], line) {
			t.Fatalf("round-trip mismatch: parsed %q, formatted %q", line, wire[:len(wire)-1])
		}
		r2, err := ParseRequest(wire[:len(wire)-1], tenants)
		if err != nil {
			t.Fatalf("re-parse of formatted %q failed: %v", wire, err)
		}
		if r2.Op != r.Op || r2.Tenant != r.Tenant || !bytes.Equal(r2.Key, r.Key) {
			t.Fatalf("re-parse mismatch: %+v vs %+v", r, r2)
		}
	})
}

// FuzzCachedBatch fuzzes the batch parser. Properties:
//
//   - it agrees with parseLines, the batch grammar spelled out over
//     ParseRequest: the same lines accepted, the same requests, and the
//     same "line N: …" error;
//   - its requests alias body, as its contract says;
//   - a batch of formatted requests always re-parses to the same sequence.
func FuzzCachedBatch(f *testing.F) {
	long := strings.Repeat("k", MaxKeyLen)
	for _, s := range []string{
		"GET 0 a\nPUT 1 b\n",
		"GET 0 a\r\nPUT 1 b\r\n",
		"\n\nGET 0 a\n\n",
		"GET 0 a\nbogus\n",
		"GET 0 trailing-no-newline",
		"\r\nGET 0 a\r\n\r\n\nPUT 3 b\r\n",
		"GET 0 crlf\r\nGET 1 blank\n\r\n\nGET 0 bare-cr\r",
		"GET 123456789 nine-digits\n",
		"GET 1234567890 ten-digits\n",
		"GET 0 a\nGET 07 leading-zero\n",
		"GET 0 " + long + "\nPUT 1 " + long + "\n",
		"GET 0 " + long + "x\n",
		"GET 0 a\nGET 0 sp ace\n",
		"GET 0 del\x7fbyte\n",
		"GET 0 \x7f\nGET 0 \x20\n",
		"PUT 0 abcdefgh\nPUT 1 abcdefg\x7f\nGET 2 last-no-newline",
	} {
		f.Add([]byte(s), 4)
		f.Add([]byte(s), 0)
	}
	f.Fuzz(func(t *testing.T, body []byte, tenants int) {
		reqs, err := ParseBatch(body, tenants)
		want, wantErr := parseLines(body, tenants)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseBatch error %v, line by line %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(reqs) != len(want) {
			t.Fatalf("ParseBatch returned %d requests, line by line %d", len(reqs), len(want))
		}
		for i := range reqs {
			if reqs[i].Op != want[i].Op || reqs[i].Tenant != want[i].Tenant || !bytes.Equal(reqs[i].Key, want[i].Key) {
				t.Fatalf("request %d: ParseBatch %+v, line by line %+v", i, reqs[i], want[i])
			}
			if k := reqs[i].Key; &k[0] != &want[i].Key[0] {
				t.Fatalf("request %d's key does not alias the body", i)
			}
		}
		var wire []byte
		for _, r := range reqs {
			wire = FormatRequest(wire, r)
		}
		again, err := ParseBatch(wire, tenants)
		if err != nil {
			t.Fatalf("re-parse of formatted batch failed: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("batch round-trip length: %d vs %d", len(again), len(reqs))
		}
		for i := range reqs {
			if again[i].Op != reqs[i].Op || again[i].Tenant != reqs[i].Tenant || !bytes.Equal(again[i].Key, reqs[i].Key) {
				t.Fatalf("batch round-trip mismatch at %d: %+v vs %+v", i, reqs[i], again[i])
			}
		}
	})
}

// parseLines is ParseBatch's contract spelled out over ParseRequest: lines
// end at "\n" and count from 1, with no line after a final "\n"; one
// trailing "\r" is dropped and blank lines are skipped; the first bad line
// fails the batch, as does a line past maxBatchLines.
func parseLines(body []byte, tenants int) ([]Request, error) {
	lines := bytes.Split(body, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	var reqs []Request
	for i, line := range lines {
		if i == maxBatchLines {
			return nil, fmt.Errorf("cached: batch exceeds %d lines", maxBatchLines)
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		r, err := ParseRequest(line, tenants)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// walSeedFrames is a valid single-shard partition-mode log as frame
// payloads, written by the live encoder: the header, a batch of first
// appearances and a repeat, a quota change, then a batch mixing repeats and
// a new page.
func walSeedFrames() [][]byte {
	var l logTail
	l.commit(encodeHeader(0, 1, 0))
	l.request(1, 0, 0, []byte("alpha"))
	l.request(2, 1, 1, []byte("beta"))
	l.request(3, 0, 0, nil)
	l.closeFrame()
	l.quotas(4, []int{3, 1})
	l.request(5, 0, 0, nil)
	l.request(6, 2, 0, []byte("gamma"))
	l.request(7, 1, 1, nil)
	l.closeFrame()
	var out [][]byte
	for c := l.chunks[0]; len(c) > 0; {
		n := frameHeaderBytes + int(binary.LittleEndian.Uint32(c))
		out = append(out, c[frameHeaderBytes:n])
		c = c[n:]
	}
	return out
}

// frameSegment gives each payload a valid frame.
func frameSegment(payloads [][]byte) []byte {
	var seg []byte
	for _, p := range payloads {
		seg = appendFrame(seg, p)
	}
	return seg
}

// FuzzWALRecover feeds arbitrary bytes to startup recovery as shard 0's only
// WAL segment. Almost every mutation breaks a CRC, so this target mostly
// exercises framing and torn-tail truncation; FuzzWALRecoverFramed reaches
// the decoder.
func FuzzWALRecover(f *testing.F) {
	seed := frameSegment(walSeedFrames())
	f.Add(seed)
	f.Add(seed[:len(seed)-3])        // torn tail
	f.Add(seed[:frameHeaderBytes-2]) // torn header frame
	f.Add([]byte{})                  // empty segment
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	corrupt := append([]byte(nil), seed...)
	corrupt[len(seed)/2] ^= 0x20
	f.Add(corrupt)
	f.Fuzz(checkRecovered)
}

// framedSep separates the payloads of a FuzzWALRecoverFramed input.
var framedSep = []byte{0xfe, 0xfe}

// FuzzWALRecoverFramed gives each 0xfe 0xfe-separated chunk of its input a
// valid frame, so every mutation reaches the log reader's validator, then
// checks recovery exactly as FuzzWALRecover does.
func FuzzWALRecoverFramed(f *testing.F) {
	frames := walSeedFrames()
	f.Add(bytes.Join(frames, framedSep))
	last := len(frames) - 1
	torn := append(append([][]byte(nil), frames[:last]...), frames[last][:len(frames[last])-2])
	f.Add(bytes.Join(torn, framedSep)) // a batch frame cut short inside
	for _, i := range []int{0, 1, 2} {
		flipped := append([][]byte(nil), frames...)
		flipped[i] = append([]byte(nil), frames[i]...)
		flipped[i][len(flipped[i])/2] ^= 0x04
		f.Add(bytes.Join(flipped, framedSep)) // a bit flip behind a valid CRC
	}
	f.Add(bytes.Join(frames[1:], framedSep)) // no header
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecovered(t, frameSegment(bytes.Split(data, framedSep)))
	})
}

// checkRecovered writes segment as shard 0's only WAL segment and recovers
// it. The contract under corruption: recovery either fails loudly (New
// returns an error) or truncates to a valid prefix — and in the latter case
// the recovered service must be fully consistent: conserving counters,
// passing the live-vs-replay differential, and still serving traffic. It
// must never panic and never invent state.
func checkRecovered(t *testing.T, segment []byte) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard-000")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir, segName(0)), segment, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{K: 4, Shards: 1, Tenants: 2, Quotas: []int{2, 2},
		WAL: &WALConfig{Dir: dir, Fsync: FsyncOff, Recover: true}})
	if errors.Is(err, errReplayPanic) {
		t.Fatalf("recovery panicked: %v", err)
	}
	if err != nil {
		return // failed loudly; acceptable
	}
	defer svc.Close()
	st := svc.Stats()
	if st.Hits+st.Misses != st.Requests {
		t.Fatalf("recovered inconsistent counters: hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	rep := svc.Recovery()
	if rep == nil || rep.Requests != st.Requests {
		t.Fatalf("recovery report %+v does not match stats %+v", rep, st)
	}
	vrep, err := svc.Verify(context.Background())
	if err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
	if !vrep.Clean {
		t.Fatalf("recovered state fails live-vs-replay: %v", vrep.Diffs)
	}
	// The service must still serve on top of the recovered state.
	if _, err := svc.Apply([]Request{{Op: OpGet, Tenant: 0, Key: []byte("post-recovery")}}); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
}
