package ndp

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"sbr6/internal/ipv6"
)

// refFloodCache is the original FloodCache — a Go map plus a sliding
// FIFO slice — kept as the reference model the open-addressed cache must
// answer identically to.
type refFloodCache struct {
	seen  map[refKey]struct{}
	order []refKey
	cap   int
}

type refKey struct {
	src ipv6.Addr
	seq uint32
}

func newRefFloodCache(capacity int) *refFloodCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &refFloodCache{seen: make(map[refKey]struct{}), cap: capacity}
}

func (f *refFloodCache) Seen(src ipv6.Addr, seq uint32) bool {
	k := refKey{src, seq}
	if _, dup := f.seen[k]; dup {
		return true
	}
	f.seen[k] = struct{}{}
	f.order = append(f.order, k)
	if len(f.order) > f.cap {
		delete(f.seen, f.order[0])
		f.order = f.order[1:]
	}
	return false
}

func (f *refFloodCache) Len() int { return len(f.seen) }

// floodOp is one Seen call of a generated sequence. Sources come from a
// small pool and sequence numbers from a small range, so sequences mix
// fresh ids, duplicates, evictions and re-inserts of evicted ids.
type floodOp struct {
	Src uint8
	Seq uint8
}

func floodSrc(i uint8) ipv6.Addr {
	a := ipv6.MustParse("fec0::1")
	a[15] = i % 5
	a[8] = 0x80 | i%3 // vary the interface-ID half too
	return a
}

// checkAgainstRef replays ops through both caches, failing on the first
// diverging Seen or Len answer.
func checkAgainstRef(t *testing.T, capacity int, ops []floodOp) bool {
	t.Helper()
	got, want := NewFloodCache(capacity), newRefFloodCache(capacity)
	for i, op := range ops {
		src, seq := floodSrc(op.Src), uint32(op.Seq%11)
		if g, w := got.Seen(src, seq), want.Seen(src, seq); g != w {
			t.Logf("cap %d op %d (%v, %d): Seen = %v, reference %v", capacity, i, src, seq, g, w)
			return false
		}
		if got.Len() != want.Len() {
			t.Logf("cap %d op %d: Len = %d, reference %d", capacity, i, got.Len(), want.Len())
			return false
		}
	}
	return true
}

func TestFloodCacheMatchesReference(t *testing.T) {
	prop := func(capSel uint8, ops []floodOp) bool {
		return checkAgainstRef(t, 1+int(capSel%24), ops)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFloodCacheEdgeCases pins the boundaries the random sequences only
// hit by chance: capacity 1, the eviction exactly at cap, and re-inserting
// an evicted id.
func TestFloodCacheEdgeCases(t *testing.T) {
	a, b := floodSrc(1), floodSrc(2)

	one := NewFloodCache(1)
	if one.Seen(a, 1) || !one.Seen(a, 1) {
		t.Fatal("capacity 1: first id not remembered")
	}
	if one.Seen(b, 1) || one.Len() != 1 {
		t.Fatal("capacity 1: second id must evict the first")
	}
	if one.Seen(a, 1) {
		t.Fatal("capacity 1: evicted id still remembered")
	}

	const capacity = 8
	fc := NewFloodCache(capacity)
	for s := uint32(0); s < capacity; s++ {
		if fc.Seen(a, s) {
			t.Fatalf("fresh id %d reported seen", s)
		}
	}
	if fc.Len() != capacity {
		t.Fatalf("Len = %d at cap, want %d", fc.Len(), capacity)
	}
	for s := uint32(0); s < capacity; s++ {
		if !fc.Seen(a, s) {
			t.Fatalf("id %d forgotten before the cache overflowed", s)
		}
	}
	if fc.Seen(a, capacity) { // the insert that reaches cap+1 evicts id 0
		t.Fatal("fresh id reported seen")
	}
	if fc.Len() != capacity {
		t.Fatalf("Len = %d after eviction, want %d", fc.Len(), capacity)
	}
	if !fc.Seen(a, 1) {
		t.Fatal("id 1 evicted out of FIFO order")
	}
	if fc.Seen(a, 0) { // re-insert of the evicted id: fresh again, evicts id 1
		t.Fatal("evicted id 0 still remembered")
	}
	if fc.Seen(a, 1) {
		t.Fatal("re-insert did not evict the next-oldest id")
	}

	for _, c := range []int{1, 2, 3, capacity, 64} {
		var ops []floodOp
		for round := 0; round < 3; round++ { // fill, overflow, re-insert
			for s := 0; s < 2*c+3; s++ {
				ops = append(ops, floodOp{Src: uint8(s % 4), Seq: uint8(s)})
			}
		}
		if !checkAgainstRef(t, c, ops) {
			t.Fatalf("cap %d: diverged from the reference", c)
		}
	}
}

// TestFloodCacheGrowsLazily holds a 10k-node scenario's cache (capacity
// 4·N = 40000) at a typical node's fill of 30 ids to no more heap than
// the reference map+slice at the same fill: the bound must not be
// allocated up front.
func TestFloodCacheGrowsLazily(t *testing.T) {
	const capacity, fill, copies = 40000, 30, 200
	fillIDs := func(seen func(ipv6.Addr, uint32) bool) {
		for i := 0; i < fill; i++ {
			seen(floodSrc(uint8(i)), uint32(i)*2654435761)
		}
	}
	heap := func(build func() any) uint64 {
		keep := make([]any, copies)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = build()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return (after.HeapAlloc - before.HeapAlloc) / copies
	}
	got := heap(func() any {
		fc := NewFloodCache(capacity)
		fillIDs(fc.Seen)
		return fc
	})
	want := heap(func() any {
		fc := newRefFloodCache(capacity)
		fillIDs(fc.Seen)
		return fc
	})
	t.Logf("heap per cache at %d of %d ids: %d B open-addressed, %d B reference", fill, capacity, got, want)
	if got > want {
		t.Fatalf("open-addressed cache holds %d B at %d ids, reference %d B", got, fill, want)
	}
}
