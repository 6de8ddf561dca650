package ndp

import (
	"encoding/binary"

	"sbr6/internal/ipv6"
)

// AddrKey is an AddrTable key: an address plus a 32-bit tag. The flood
// seen-sets tag the originator with the flood's sequence number; the
// neighbour cache, keyed by the address alone, leaves Tag zero.
type AddrKey struct {
	Addr ipv6.Addr
	Tag  uint32
}

type addrEntry[V any] struct {
	key AddrKey
	val V
}

// AddrTable is the address-keyed hash table the flood seen-sets
// (FloodCache) and the nodes' neighbour caches sit on.
//
// It keeps its entries in a dense array in insertion order and finds them
// through an open-addressed index of 32-bit entry positions (linear
// probing, load at most one half, backward-shift deletion, no
// tombstones). Keys are stored inline, so a table of n entries costs
// about 20+sizeof(V) bytes per entry plus 8 bytes of index — a fraction
// of a Go map plus a side slice.
//
// A bounded table (see Init) holds at most limit keys and evicts the
// oldest first: once full, the entry array is a FIFO ring and every new
// key overwrites the oldest one. Both arrays grow lazily, so a table with
// a large limit that only ever holds a few keys stays small.
//
// The hash is a fixed mix of the key bytes, so a table behaves
// identically on every run; nothing ranges over it.
//
// The zero value is an empty, unbounded table ready to use. An AddrTable
// is not safe for concurrent use.
type AddrTable[V any] struct {
	// ents holds the entries in insertion order. Once a bounded table is
	// full it is a ring whose oldest entry sits at head.
	ents []addrEntry[V]
	head int
	// slots is the open-addressed index: 0 is empty, otherwise the entry
	// position plus one. Its length is zero or a power of two.
	slots []uint32
	limit int
}

// Init empties t and bounds it to at most limit keys, evicting the oldest
// first; limit <= 0 means unbounded, like the zero AddrTable.
func (t *AddrTable[V]) Init(limit int) {
	if limit < 0 {
		limit = 0
	}
	*t = AddrTable[V]{limit: limit}
}

// Len reports the number of keys held.
func (t *AddrTable[V]) Len() int { return len(t.ents) }

// Get returns the value stored under k.
func (t *AddrTable[V]) Get(k AddrKey) (V, bool) {
	if i, ok := t.find(k); ok {
		return t.ents[i].val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k and reports whether k was already present. A
// present key keeps its age: only inserting a new key into a full bounded
// table evicts, and it evicts the oldest key.
func (t *AddrTable[V]) Put(k AddrKey, v V) (present bool) {
	if i, ok := t.find(k); ok {
		t.ents[i].val = v
		return true
	}
	if t.limit > 0 && len(t.ents) == t.limit {
		// Full: the new key takes the oldest key's place in the ring.
		old := t.head
		t.unlink(old)
		t.ents[old] = addrEntry[V]{key: k, val: v}
		t.link(old)
		if t.head++; t.head == t.limit {
			t.head = 0
		}
		return false
	}
	if 2*(len(t.ents)+1) > len(t.slots) {
		t.growSlots()
	}
	if len(t.ents) == cap(t.ents) {
		t.growEntries()
	}
	t.ents = append(t.ents, addrEntry[V]{key: k, val: v})
	t.link(len(t.ents) - 1)
	return false
}

// addrHash mixes the key into 64 well-spread bits. The interface identifier
// (the address's low half) of a CGA is already a hash output; the mix
// makes sequential tags and shared prefixes spread as well.
func addrHash(k AddrKey) uint64 {
	hi := binary.LittleEndian.Uint64(k.Addr[:8])
	lo := binary.LittleEndian.Uint64(k.Addr[8:])
	x := lo ^ hi*0x9e3779b97f4a7c15 ^ uint64(k.Tag)*0xc2b2ae3d27d4eb4f
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 29
	return x
}

// find returns the entry position of k.
func (t *AddrTable[V]) find(k AddrKey) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for p := addrHash(k) & mask; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			return 0, false
		}
		if t.ents[s-1].key == k {
			return int(s - 1), true
		}
	}
}

// link indexes the entry at position i. The key must be absent and the
// index must have a free slot.
func (t *AddrTable[V]) link(i int) {
	mask := uint64(len(t.slots) - 1)
	p := addrHash(t.ents[i].key) & mask
	for t.slots[p] != 0 {
		p = (p + 1) & mask
	}
	t.slots[p] = uint32(i + 1)
}

// unlink removes the entry at position i from the index, shifting later
// members of its probe run back so that no lookup ever needs a tombstone.
func (t *AddrTable[V]) unlink(i int) {
	mask := uint64(len(t.slots) - 1)
	want := uint32(i + 1)
	p := addrHash(t.ents[i].key) & mask
	for t.slots[p] != want {
		p = (p + 1) & mask
	}
	for q := (p + 1) & mask; t.slots[q] != 0; q = (q + 1) & mask {
		// The slot at q may move back to the hole at p unless its home
		// lies cyclically within (p, q].
		home := addrHash(t.ents[t.slots[q]-1].key) & mask
		if (q-home)&mask >= (q-p)&mask {
			t.slots[p] = t.slots[q]
			p = q
		}
	}
	t.slots[p] = 0
}

// growSlots doubles the index (8 slots at first) and reindexes every
// entry.
func (t *AddrTable[V]) growSlots() {
	n := 2 * len(t.slots)
	if n == 0 {
		n = 8
	}
	t.slots = make([]uint32, n)
	for i := range t.ents {
		t.link(i)
	}
}

// growEntries doubles the entry array's capacity (8 at first), never past
// the table's limit.
func (t *AddrTable[V]) growEntries() {
	n := 2 * cap(t.ents)
	if n == 0 {
		n = 8
	}
	if t.limit > 0 && n > t.limit {
		n = t.limit
	}
	ents := make([]addrEntry[V], len(t.ents), n)
	copy(ents, t.ents)
	t.ents = ents
}
