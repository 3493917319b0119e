package cached

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
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

// FuzzCachedBatch fuzzes the batch splitter around the line parser: no
// panic, every returned request is individually valid, and a batch of
// formatted requests always re-parses to the same sequence.
func FuzzCachedBatch(f *testing.F) {
	f.Add([]byte("GET 0 a\nPUT 1 b\n"), 4)
	f.Add([]byte("GET 0 a\r\nPUT 1 b\r\n"), 4)
	f.Add([]byte("\n\nGET 0 a\n\n"), 4)
	f.Add([]byte("GET 0 a\nbogus\n"), 4)
	f.Add([]byte("GET 0 trailing-no-newline"), 4)
	f.Fuzz(func(t *testing.T, body []byte, tenants int) {
		reqs, err := ParseBatch(body, tenants)
		if err != nil {
			return
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
