package ndp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbr6/internal/ipv6"
)

// tableModel is the obvious AddrTable: a map plus an insertion-order
// slice, evicting from the front once over the limit.
type tableModel struct {
	vals  map[AddrKey]int
	order []AddrKey
	limit int
}

func (m *tableModel) put(k AddrKey, v int) bool {
	if _, ok := m.vals[k]; ok {
		m.vals[k] = v
		return true
	}
	m.vals[k] = v
	m.order = append(m.order, k)
	if m.limit > 0 && len(m.order) > m.limit {
		delete(m.vals, m.order[0])
		m.order = m.order[1:]
	}
	return false
}

type tableOp struct {
	Key uint8
	Val int16
}

// tableKey spreads a small key space over both address halves and the tag,
// so probe runs collide and wrap in the small early indexes.
func tableKey(b uint8) AddrKey {
	var a ipv6.Addr
	a[0], a[15], a[7] = 0xfe, b%7, b%3
	return AddrKey{Addr: a, Tag: uint32(b % 5)}
}

// checkTable replays ops through an AddrTable and the model, and after
// every op looks up every key of the space: a broken backward shift loses
// some other key's entry, not the one just touched.
func checkTable(t *testing.T, limit int, ops []tableOp) bool {
	t.Helper()
	tab, ref := &AddrTable[int]{}, &tableModel{vals: map[AddrKey]int{}, limit: limit}
	tab.Init(limit)
	for i, o := range ops {
		k := tableKey(o.Key)
		if g, w := tab.Put(k, int(o.Val)), ref.put(k, int(o.Val)); g != w {
			t.Logf("limit %d tableOp %d: Put present = %v, tableModel %v", limit, i, g, w)
			return false
		}
		if tab.Len() != len(ref.vals) {
			t.Logf("limit %d tableOp %d: Len = %d, tableModel %d", limit, i, tab.Len(), len(ref.vals))
			return false
		}
		for b := 0; b < 7*3*5; b++ {
			k := tableKey(uint8(b))
			g, gok := tab.Get(k)
			w, wok := ref.vals[k]
			if g != w || gok != wok {
				t.Logf("limit %d tableOp %d: Get(%v) = %d,%v, tableModel %d,%v", limit, i, k, g, gok, w, wok)
				return false
			}
		}
	}
	return true
}

func TestAddrTableMatchesModel(t *testing.T) {
	prop := func(limitSel uint8, ops []tableOp) bool {
		limit := int(limitSel % 20) // 0 is unbounded
		return checkTable(t, limit, ops)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddrTableLongRuns(t *testing.T) {
	// Enough keys to grow the unbounded index several times, and a
	// bounded table cycled through its ring many times over.
	var ops []tableOp
	for i := 0; i < 600; i++ {
		ops = append(ops, tableOp{Key: uint8(i * 7), Val: int16(i)})
	}
	for _, limit := range []int{0, 1, 2, 9, 64} {
		if !checkTable(t, limit, ops) {
			t.Fatalf("limit %d diverged from the tableModel", limit)
		}
	}
}

func TestZeroAddrTableAndInit(t *testing.T) {
	var tab AddrTable[string]
	if _, ok := tab.Get(AddrKey{}); ok || tab.Len() != 0 {
		t.Fatal("zero table not empty")
	}
	if tab.Put(AddrKey{Tag: 1}, "a") || !tab.Put(AddrKey{Tag: 1}, "b") {
		t.Fatal("zero table: Put presence wrong")
	}
	if v, _ := tab.Get(AddrKey{Tag: 1}); v != "b" {
		t.Fatalf("update lost: %q", v)
	}
	tab.Init(1)
	if tab.Len() != 0 {
		t.Fatal("Init kept entries")
	}
	tab.Put(AddrKey{Tag: 1}, "a")
	tab.Put(AddrKey{Tag: 2}, "b")
	if _, ok := tab.Get(AddrKey{Tag: 1}); ok || tab.Len() != 1 {
		t.Fatal("limit 1 kept the older key")
	}
}

func BenchmarkAddrTablePutHit(b *testing.B) {
	var tab AddrTable[struct{}]
	tab.Init(40000)
	keys := make([]AddrKey, 32)
	for i := range keys {
		keys[i] = tableKey(uint8(i))
		keys[i].Tag = uint32(i) * 2654435761
		tab.Put(keys[i], struct{}{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Put(keys[i&31], struct{}{})
	}
}
