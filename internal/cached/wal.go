package cached

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"convexcache/internal/fault"
	"convexcache/internal/trace"
)

// This file is a shard's log: one byte format for the in-memory tail and
// the per-shard write-ahead log on disk. The shard's single-writer loop
// appends frames to the tail and writes each new frame to the active
// segment — one write (and at most one fsync) per mailbox batch — so the
// hot path stays lock-free. Because the shard's engine is a deterministic
// function of the log, replaying the log through it reconstructs the shard
// bit for bit; recover.go and verify.go build on that, reading the log
// through one reader with one validator (logReader).
//
// On-disk layout, per shard, under <dir>/shard-<id>/:
//
//	wal-00000000.seg, wal-00000001.seg, ...   segment files
//
// Recovery lists only the segments; ckpt-*.ck files an older build wrote
// beside them are ignored.
//
// A segment, like the in-memory tail, is a stream of frames, each
//
//	u32le payload_len | u32le crc32(IEEE, payload) | payload
//
// with three payload kinds, every integer a uvarint:
//
//	'H' version shard shards start   opens every segment and the tail
//	'B' seq count entry...           one batch: count requests, seqs seq, seq+1, ...
//	'Q' seq len quota...             a quota-control entry (partition mode)
//
// A batch entry is the page's residue-class slot (page−shard)/shards. A slot
// equal to the number of pages seen so far is the page's first appearance
// and is followed by the tenant, the key length and the key, so recovery
// can rebuild the key-interning table; every later request for the page is
// the slot alone, because a page's owner never changes. The format cannot
// express an owner flip or a page outside the shard's residue class.
//
// A frame is valid only if fully present with a matching CRC; recovery
// truncates the final segment at the first bad frame (a torn tail, which
// drops a whole batch no caller was told about) and refuses corruption
// anywhere earlier (a gap would silently drop admitted requests).
type shardWAL struct {
	fs    fault.FS
	dir   string
	shard int

	fsync     FsyncPolicy
	syncEvery time.Duration
	segBytes  int64

	f        fault.File
	segIndex int
	size     int64 // bytes in the active segment
	lastSync time.Time
	dirty    bool // written-but-unsynced bytes exist
}

// FsyncPolicy picks when the WAL calls fsync.
type FsyncPolicy string

const (
	// FsyncAlways syncs once per applied batch (group commit): an
	// acknowledged request is durable before the response is sent.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs at most once per WALConfig.FsyncInterval, plus on
	// segment rotation and clean shutdown; an idle shard syncs its last
	// writes when the interval runs out. Bounded data loss on power failure
	// — at most one interval of acknowledged batches — near-zero overhead.
	// Kill -9 loses nothing either way — written bytes survive process
	// death; fsync only defends against the machine dying.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs (the OS flushes on its own schedule).
	FsyncOff FsyncPolicy = "off"
)

// WALConfig enables crash-fault tolerance for the service: every shard
// journals its log to segment files under Dir and bounds its in-memory log
// to the active segment.
type WALConfig struct {
	// Dir is the WAL root; each shard uses <Dir>/shard-<id>/.
	Dir string
	// Fsync picks the durability/latency trade; empty selects FsyncInterval.
	Fsync FsyncPolicy
	// FsyncInterval is the max unsynced window under FsyncInterval; <= 0
	// selects 50ms.
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment past this size; <= 0 selects
	// 8 MiB (floor 4 KiB).
	SegmentBytes int64
	// FS is the filesystem the WAL writes through; nil selects fault.OSFS.
	// Tests inject a fault.FaultFS here.
	FS fault.FS
	// Recover loads existing WAL state from Dir instead of failing when Dir
	// is non-empty: every segment is replayed, torn tails truncated, and the
	// global sequence re-derived from the shard maxima.
	Recover bool
}

// normalize validates and defaults the config in place.
func (w *WALConfig) normalize() error {
	if w.Dir == "" {
		return errors.New("cached: WAL requires a directory")
	}
	switch w.Fsync {
	case "":
		w.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncOff:
	default:
		return fmt.Errorf("cached: unknown fsync policy %q (want always, interval or off)", w.Fsync)
	}
	if w.FsyncInterval <= 0 {
		w.FsyncInterval = 50 * time.Millisecond
	}
	if w.SegmentBytes <= 0 {
		w.SegmentBytes = 8 << 20
	}
	if w.SegmentBytes < 4096 {
		w.SegmentBytes = 4096
	}
	if w.FS == nil {
		w.FS = fault.OSFS
	}
	return nil
}

// Frame kinds.
const (
	recHeader = 'H'
	recBatch  = 'B'
	recQuotas = 'Q'
)

// walVersion is the log format version stamped into segment headers.
// Version 1 framed every request on its own; it is refused.
const walVersion = 2

// maxRecordBytes bounds a single frame's payload; anything larger in a
// length field is corruption. Batch frames close before reaching
// maxBatchPayload, so only a quota vector for a vast tenant count comes
// near.
const maxRecordBytes = 1 << 20

const frameHeaderBytes = 8 // u32 len + u32 crc

// logChunkBytes sizes the tail's chunks. A frame never spans two chunks;
// one larger than a chunk gets a chunk of its own.
const logChunkBytes = 64 << 10

// A batch frame's payload is its kind, seq and count (at most
// maxBatchPrefix bytes), then its entries (each at most maxEntryBytes). An
// entry that could push the payload past maxBatchPayload starts a new
// frame, so a batch frame always fits in one chunk.
const (
	maxBatchPrefix  = 1 + 2*binary.MaxVarintLen64
	maxEntryBytes   = 3*binary.MaxVarintLen64 + MaxKeyLen
	maxBatchPayload = logChunkBytes - frameHeaderBytes
)

// appendFrame wraps payload in a length+CRC frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// encodeHeader builds the 'H' payload opening a segment (and the tail).
func encodeHeader(shard, n, startEntry int) []byte {
	p := []byte{recHeader}
	p = binary.AppendUvarint(p, walVersion)
	p = binary.AppendUvarint(p, uint64(shard))
	p = binary.AppendUvarint(p, uint64(n))
	return binary.AppendUvarint(p, uint64(startEntry))
}

// logTail is a shard's in-memory log: the active segment's frames (the
// whole session without a WAL), byte for byte what the WAL writes, in
// fixed-size append-only chunks. Appends never move committed bytes and a
// chunk is never reused — rotation starts a fresh tail — so a snapshot can
// hand Verify the chunks themselves while the shard keeps appending.
type logTail struct {
	chunks [][]byte
	bytes  int // committed bytes across chunks
	// wc, wo locate the first byte the WAL has not written yet.
	wc, wo int
	// The open batch frame: count entries with seqs base, base+1, ...,
	// encoded in body behind maxBatchPrefix bytes kept for the frame's
	// prefix. closeFrame commits it to the chunks.
	base  int64
	count int
	body  []byte
}

// request appends one request to the open batch frame. key is set exactly
// when the request interned a new page (slot is then the page count before
// it).
func (l *logTail) request(seq int64, slot int, t trace.Tenant, key []byte) {
	if l.count > 0 && (seq != l.base+int64(l.count) || len(l.body)+maxEntryBytes > maxBatchPayload) {
		l.closeFrame()
	}
	if l.count == 0 {
		l.base = seq
		l.body = append(l.body[:0], make([]byte, maxBatchPrefix)...)
	}
	l.count++
	l.body = binary.AppendUvarint(l.body, uint64(slot))
	if key != nil {
		l.body = binary.AppendUvarint(l.body, uint64(t))
		l.body = binary.AppendUvarint(l.body, uint64(len(key)))
		l.body = append(l.body, key...)
	}
}

// closeFrame commits the open batch frame, if any.
func (l *logTail) closeFrame() {
	if l.count == 0 {
		return
	}
	var pre [maxBatchPrefix]byte
	p := append(pre[:0], recBatch)
	p = binary.AppendUvarint(p, uint64(l.base))
	p = binary.AppendUvarint(p, uint64(l.count))
	start := maxBatchPrefix - len(p)
	copy(l.body[start:], p)
	l.commit(l.body[start:])
	l.count = 0
}

// quotas commits a quota-control frame after the open batch frame.
func (l *logTail) quotas(seq int64, q []int) {
	l.closeFrame()
	p := append(make([]byte, 0, maxBatchPrefix+len(q)*binary.MaxVarintLen64), recQuotas)
	p = binary.AppendUvarint(p, uint64(seq))
	p = binary.AppendUvarint(p, uint64(len(q)))
	for _, v := range q {
		p = binary.AppendUvarint(p, uint64(v))
	}
	l.commit(p)
}

// commit appends payload's frame to the last chunk, starting a new chunk
// when it does not fit.
func (l *logTail) commit(payload []byte) {
	n := frameHeaderBytes + len(payload)
	k := len(l.chunks) - 1
	if k < 0 || cap(l.chunks[k])-len(l.chunks[k]) < n {
		l.chunks = append(l.chunks, make([]byte, 0, max(logChunkBytes, n)))
		k++
	}
	l.chunks[k] = appendFrame(l.chunks[k], payload)
	l.bytes += n
}

// unwritten hands the committed bytes the WAL has not written yet to write,
// one call per chunk they touch, and marks them written.
func (l *logTail) unwritten(write func([]byte) error) error {
	for ; l.wc < len(l.chunks); l.wc, l.wo = l.wc+1, 0 {
		if c := l.chunks[l.wc]; l.wo < len(c) {
			if err := write(c[l.wo:]); err != nil {
				return err
			}
			l.wo = len(c)
		}
		if l.wc == len(l.chunks)-1 {
			return nil
		}
	}
	return nil
}

// logVisitor consumes a shard's log entries in order, as logReader
// validates them, one batch frame at a time.
type logVisitor interface {
	// page is a page's first appearance: slot is the next slot, t the
	// page's tenant and key its key, valid only during the call. It comes
	// before the requests call that holds the request introducing it.
	page(slot int, t trace.Tenant, key []byte) error
	// requests is a batch frame's requests, seqs seq, seq+1, ...: slots[j]
	// is the j-th's page slot, and owners[slot] that page's tenant. Both
	// slices are valid only during the call.
	requests(seq int64, slots []int32, owners []trace.Tenant) error
	// quotas is a quota-control entry; q is the global quota vector.
	quotas(seq int64, q []int) error
}

// logReader reads a shard's log in order — its segments from the first,
// then the in-memory tail — and validates every frame against the history
// read so far:
//
//   - each segment and the tail open with a header frame naming this
//     format version, this shard and shard count, and the entry count read
//     so far as the start entry;
//   - each frame's CRC matches;
//   - each frame's seq is above the previous entry's;
//   - a batch holds at least one entry, and every payload is consumed
//     exactly;
//   - an entry's slot is at most the pages seen so far, and a slot equal to
//     them carries a tenant below Tenants and a key of 1..MaxKeyLen bytes;
//   - a quota vector has one entry per tenant, sums to K, and appears only
//     in partition mode.
//
// Recovery, rebuild after a panic and Verify all read through it, so they
// accept exactly the same logs.
type logReader struct {
	shard, shards, tenants, k int
	partition                 bool

	entries int            // log entries read so far
	lastSeq int64          // seq of the newest entry read
	owners  []trace.Tenant // owner of each slot seen; len is the page count
	slots   []int32        // the batch frame being decoded

	// Position, for errors: the segment or tail being read, whether its
	// header has been read, and the offset of the frame being decoded.
	where  string
	header bool
	off    int64

	br *bufio.Reader
}

func (s *Service) newLogReader(shard int) *logReader {
	return &logReader{shard: shard, shards: s.cfg.Shards, tenants: s.cfg.Tenants, k: s.cfg.K, partition: s.cfg.Quotas != nil}
}

func (r *logReader) errorf(format string, args ...any) error {
	return fmt.Errorf("%s, frame at byte %d: %s", r.where, r.off, fmt.Sprintf(format, args...))
}

// cutFrame splits the frame at the start of b into its payload and the rest
// of b; ok is false unless b starts with a whole, CRC-valid frame.
func cutFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeaderBytes {
		return nil, b, false
	}
	n := int64(binary.LittleEndian.Uint32(b))
	if n > int64(len(b)-frameHeaderBytes) {
		return nil, b, false
	}
	payload = b[frameHeaderBytes : frameHeaderBytes+n]
	return payload, b[frameHeaderBytes+n:], crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:])
}

// segment reads one segment file. It returns the byte length of the valid
// prefix; torn reports that the file ends in a partial or CRC-failing frame,
// everything before which is intact. A CRC-valid frame that fails
// validation, or a visitor error, is returned as an error instead. keep,
// when set, receives a copy of every valid frame (recovery rebuilds the
// active segment's tail from it).
func (r *logReader) segment(rd io.Reader, idx int, v logVisitor, keep *logTail) (valid int64, torn bool, err error) {
	r.where, r.header = "segment "+strconv.Itoa(idx), false
	if r.br == nil {
		// Large enough to hold any valid frame, which is read in place.
		r.br = bufio.NewReaderSize(rd, frameHeaderBytes+maxRecordBytes)
	} else {
		r.br.Reset(rd)
	}
	for {
		r.off = valid
		b, err := r.br.Peek(frameHeaderBytes)
		if len(b) == 0 && err == io.EOF {
			return valid, false, nil
		}
		if err != nil {
			return valid, true, nil // partial frame header
		}
		n := frameHeaderBytes + int(binary.LittleEndian.Uint32(b))
		if n > frameHeaderBytes+maxRecordBytes {
			return valid, true, nil // corrupt length field
		}
		b, _ = r.br.Peek(n)
		p, _, ok := cutFrame(b)
		if !ok {
			return valid, true, nil // torn payload, bit rot or torn write inside the frame
		}
		if err := r.frame(p, v); err != nil {
			return valid, false, err
		}
		if keep != nil {
			keep.commit(p)
		}
		r.br.Discard(n)
		valid += int64(n)
	}
}

// sealed reads segments [0, n) of dir. Sealed segments are immutable and
// were validated when written or recovered, so a torn one is an error.
func (r *logReader) sealed(fs fault.FS, dir string, n int, v logVisitor) error {
	for idx := 0; idx < n; idx++ {
		rc, err := fs.Open(path.Join(dir, segName(idx)))
		if err != nil {
			return err
		}
		_, torn, err := r.segment(rc, idx, v, nil)
		rc.Close()
		switch {
		case err != nil:
			return err
		case torn:
			return fmt.Errorf("sealed segment %d has a torn tail", idx)
		case !r.header:
			return fmt.Errorf("sealed segment %d has no header", idx)
		}
	}
	return nil
}

// tail reads the in-memory tail where it lies. This process wrote every
// frame in it, so a bad frame is an error, never a torn tail.
func (r *logReader) tail(chunks [][]byte, v logVisitor) error {
	r.where, r.header, r.off = "log tail", false, 0
	for _, c := range chunks {
		for len(c) > 0 {
			p, rest, ok := cutFrame(c)
			if !ok {
				return r.errorf("partial frame or CRC mismatch")
			}
			if err := r.frame(p, v); err != nil {
				return err
			}
			r.off += int64(len(c) - len(rest))
			c = rest
		}
	}
	if !r.header {
		return errors.New("log tail has no header")
	}
	return nil
}

// frame validates one CRC-checked payload and hands its entries to v.
func (r *logReader) frame(p []byte, v logVisitor) error {
	if len(p) == 0 {
		return r.errorf("empty frame")
	}
	d := uvarints{b: p[1:]}
	if !r.header {
		if p[0] != recHeader {
			return r.errorf("first frame is %q, not a header", p[0])
		}
		return r.readHeader(&d)
	}
	switch p[0] {
	case recBatch:
		return r.batch(&d, v)
	case recQuotas:
		return r.quota(&d, v)
	case recHeader:
		return r.errorf("duplicate header")
	}
	return r.errorf("unknown frame kind %q", p[0])
}

func (r *logReader) readHeader(d *uvarints) error {
	ver, shard, shards, start := d.next(), d.next(), d.next(), d.next()
	switch {
	case d.bad || len(d.b) != 0:
		return r.errorf("malformed header")
	case ver != walVersion:
		return r.errorf("wal format version %d, this build reads only version %d (no converter exists; start from an empty directory)", ver, walVersion)
	case shard != uint64(r.shard) || shards != uint64(r.shards):
		return r.errorf("written by shard %d of %d, this is shard %d of %d", shard, shards, r.shard, r.shards)
	case start != uint64(r.entries):
		return r.errorf("starts at entry %d, expected %d — entries are missing", start, r.entries)
	}
	r.header = true
	return nil
}

// seq validates the seq of an entry group of count entries and returns it.
func (r *logReader) seq(seq, count uint64) (int64, error) {
	if seq <= uint64(r.lastSeq) || seq > math.MaxInt64-count+1 {
		return 0, r.errorf("seq %d not increasing (prev %d) or out of range", seq, r.lastSeq)
	}
	return int64(seq), nil
}

func (r *logReader) batch(d *uvarints, v logVisitor) error {
	base, count := d.next(), d.next()
	switch {
	case d.bad:
		return r.errorf("malformed batch header")
	case count == 0 || count > uint64(len(d.b)):
		return r.errorf("batch of %d entries in %d bytes", count, len(d.b))
	}
	seq, err := r.seq(base, count)
	if err != nil {
		return err
	}
	slots := slices.Grow(r.slots[:0], int(count))[:count]
	for i := range slots {
		// A two-byte slot, the commonest entry once a shard holds more
		// than 128 pages, is decoded in place; anything else goes through
		// next.
		var slot uint64
		if b := d.b; len(b) > 1 && b[0] >= 0x80 && b[1] < 0x80 {
			slot, d.b = uint64(b[0]&0x7f)|uint64(b[1])<<7, b[2:]
		} else if slot = d.next(); d.bad {
			return r.errorf("batch entry %d truncated", i)
		}
		if pages := uint64(len(r.owners)); slot >= pages {
			if slot > pages {
				return r.errorf("batch entry %d: slot %d past the %d pages seen so far", i, slot, pages)
			}
			tenant, klen := d.next(), d.next()
			if d.bad || tenant >= uint64(r.tenants) || klen == 0 || klen > MaxKeyLen || klen > uint64(len(d.b)) {
				return r.errorf("batch entry %d: first appearance of slot %d has tenant %d and a %d-byte key", i, slot, tenant, klen)
			}
			t := trace.Tenant(tenant)
			r.owners = append(r.owners, t)
			if err := v.page(int(slot), t, d.b[:klen]); err != nil {
				return err
			}
			d.b = d.b[klen:]
		}
		slots[i] = int32(slot)
	}
	r.slots = slots
	if len(d.b) != 0 {
		return r.errorf("%d bytes after the batch's %d entries", len(d.b), count)
	}
	if err := v.requests(seq, slots, r.owners); err != nil {
		return err
	}
	r.entries += len(slots)
	r.lastSeq = seq + int64(len(slots)) - 1
	return nil
}

func (r *logReader) quota(d *uvarints, v logVisitor) error {
	seq, n := d.next(), d.next()
	switch {
	case d.bad:
		return r.errorf("malformed quota frame")
	case !r.partition:
		return r.errorf("quota control entry outside partition mode")
	case n != uint64(r.tenants):
		return r.errorf("quota vector of %d tenants, config has %d", n, r.tenants)
	}
	s, err := r.seq(seq, 1)
	if err != nil {
		return err
	}
	q := make([]int, r.tenants)
	sum := uint64(0)
	for t := range q {
		x := d.next()
		if x > uint64(r.k) {
			d.bad = true
		}
		q[t], sum = int(x), sum+x
	}
	if d.bad || len(d.b) != 0 || sum != uint64(r.k) {
		return r.errorf("quota vector %v is malformed or does not sum to K=%d", q, r.k)
	}
	if err := v.quotas(s, q); err != nil {
		return err
	}
	r.entries++
	r.lastSeq = s
	return nil
}

// uvarints reads consecutive uvarints off a payload; a truncated or
// overlong one sets bad, after which every read returns 0.
type uvarints struct {
	b   []byte
	bad bool
}

func (d *uvarints) next() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.b, d.bad = nil, true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Segment file naming.

func segName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// shardDirName returns the per-shard subdirectory under the WAL root.
func shardDirName(root string, shard int) string {
	return path.Join(root, fmt.Sprintf("shard-%03d", shard))
}

// listSegments returns the indices n of the shard dir's files named
// wal-<n>.seg, ascending.
func listSegments(fs fault.FS, dir string) ([]int, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		if n, err := strconv.Atoi(name[len("wal-") : len(name)-len(".seg")]); err == nil && n >= 0 {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// newShardWAL builds the writer; the shard then either opens a fresh
// segment or recovers existing state (recover.go) before its loop starts.
func newShardWAL(cfg *WALConfig, shard int) *shardWAL {
	return &shardWAL{
		fs:        cfg.FS,
		dir:       shardDirName(cfg.Dir, shard),
		shard:     shard,
		fsync:     cfg.Fsync,
		syncEvery: cfg.FsyncInterval,
		segBytes:  cfg.SegmentBytes,
	}
}

// open makes segment index the active one, appending to it.
func (w *shardWAL) open(index int) error {
	f, err := w.fs.Append(path.Join(w.dir, segName(index)))
	if err != nil {
		return fmt.Errorf("cached: shard %d: open wal segment %d: %w", w.shard, index, err)
	}
	w.f, w.segIndex, w.size, w.dirty = f, index, 0, false
	return nil
}

// write appends p to the active segment.
func (w *shardWAL) write(p []byte) error {
	n, err := w.f.Write(p)
	w.size += int64(n)
	w.dirty = true
	if err != nil {
		return fmt.Errorf("cached: shard %d: wal write: %w", w.shard, err)
	}
	return nil
}

// commit applies the fsync policy to written bytes: always syncs them,
// interval syncs them once the interval since the last sync has run out.
func (w *shardWAL) commit(now time.Time) error {
	if !w.dirty || w.fsync == FsyncOff || w.fsync == FsyncInterval && now.Sub(w.lastSync) < w.syncEvery {
		return nil
	}
	return w.sync(now)
}

func (w *shardWAL) sync(now time.Time) error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("cached: shard %d: wal fsync: %w", w.shard, err)
	}
	w.dirty = false
	w.lastSync = now
	return nil
}

// seal syncs (unless fsync is off) and closes the active segment — on
// rotation and at clean shutdown. Crash() skips it on purpose.
func (w *shardWAL) seal() error {
	if w.fsync != FsyncOff && w.dirty {
		if err := w.sync(time.Now()); err != nil {
			return fmt.Errorf("cached: shard %d: seal wal segment %d: %w", w.shard, w.segIndex, err)
		}
	}
	w.dirty = false
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("cached: shard %d: close wal segment %d: %w", w.shard, w.segIndex, err)
	}
	return nil
}
