package cached

import (
	"bytes"
	"encoding/binary"

	"convexcache/internal/trace"
)

// mix64 is a 64-bit avalanche finalizer (the same construction ingress
// routing uses).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashKey returns the interner's hash of key and its 8-byte prefix (first
// min(len, 8) bytes little-endian, zero-padded). Keys no longer than 8
// bytes hash in a handful of arithmetic ops straight off the prefix word;
// longer keys take FNV-1a over the full bytes. Both finalize through
// mix64. Zero is the table's empty-slot sentinel, so the (vanishingly
// rare) zero hash is forced to one.
func hashKey(key []byte) (h, pre uint64) {
	n := len(key)
	if n <= 8 {
		// Word loads instead of a byte loop: two overlapping 4-byte loads
		// cover lengths 4–8 (the hi word is shifted so the overlap lands on
		// the same bytes), explicit combines cover 1–3. Same little-endian
		// zero-padded prefix as the loop, a fraction of the instructions.
		switch {
		case n >= 4:
			lo := uint64(binary.LittleEndian.Uint32(key))
			hi := uint64(binary.LittleEndian.Uint32(key[n-4:]))
			pre = lo | hi<<(8*uint(n-4))
		case n == 3:
			pre = uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16
		case n == 2:
			pre = uint64(key[0]) | uint64(key[1])<<8
		case n == 1:
			pre = uint64(key[0])
		}
		h = mix64(pre ^ uint64(n)*1099511628211)
	} else {
		pre = binary.LittleEndian.Uint64(key)
		h = uint64(14695981039346656037)
		for _, c := range key {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h = mix64(h)
	}
	if h == 0 {
		h = 1
	}
	return h, pre
}

// keySlot is one interner entry: the key's hash, its page id, the key's
// 8-byte prefix inline, and the key bytes' position in the arena.
// hash == 0 marks the slot empty. The inline prefix makes a lookup of a key
// no longer than 8 bytes a single-cache-line operation — hash, length and
// prefix together decide equality without touching the arena.
type keySlot struct {
	hash uint64
	page trace.PageID
	pre  uint64
	off  uint32
	klen uint32
}

// keyTable interns one tenant's wire keys to page ids: open addressing with
// linear probing over pointer-free slots, key bytes appended to a shared
// arena. It replaces map[string]trace.PageID on the request hot path — no
// per-key string allocation on insert, and nothing for the collector to
// chase (the slots array has no pointers and the arena is one object).
type keyTable struct {
	slots []keySlot
	arena []byte
	n     int
}

// lookup finds key (with h and pre from hashKey) and returns its page id.
func (kt *keyTable) lookup(h, pre uint64, key []byte) (trace.PageID, bool) {
	slots := kt.slots
	if len(slots) == 0 {
		return 0, false
	}
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		if s.hash == 0 {
			return 0, false
		}
		if s.hash == h && s.klen == uint32(len(key)) && s.pre == pre {
			if len(key) <= 8 || bytes.Equal(kt.arena[s.off:s.off+s.klen], key) {
				return s.page, true
			}
		}
	}
}

// insert adds a key known to be absent (callers look up first).
func (kt *keyTable) insert(h, pre uint64, key []byte, page trace.PageID) {
	if (kt.n+1)*4 > len(kt.slots)*3 {
		kt.grow()
	}
	off := uint32(len(kt.arena))
	kt.arena = append(kt.arena, key...)
	kt.place(keySlot{hash: h, page: page, pre: pre, off: off, klen: uint32(len(key))})
	kt.n++
}

// place probes for the first empty slot; the table always has free space
// (grow keeps load below 3/4).
func (kt *keyTable) place(s keySlot) {
	mask := uint64(len(kt.slots) - 1)
	i := s.hash & mask
	for kt.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	kt.slots[i] = s
}

// grow doubles the slot array and rehashes; arena offsets are untouched.
func (kt *keyTable) grow() {
	old := kt.slots
	n := 2 * len(old)
	if n == 0 {
		n = 256
	}
	kt.slots = make([]keySlot, n)
	for i := range old {
		if old[i].hash != 0 {
			kt.place(old[i])
		}
	}
}
