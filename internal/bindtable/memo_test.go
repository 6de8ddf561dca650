package bindtable_test

import (
	"math/rand"
	"testing"

	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/verifycache"
)

// binding mints one honest (addr, pk, rn) CGA binding.
func binding(t *testing.T, seed int64) (ipv6.Addr, []byte, uint64) {
	t.Helper()
	id, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(seed)), "")
	if err != nil {
		t.Fatal(err)
	}
	return id.Addr, id.Pub.Bytes(), id.Rn
}

// Two Views of one memo model two nodes on one event loop: a binding
// verdict computed at one is served to the other, positive or negative,
// and Forget (a departed node) makes the next check recompute.
func TestVerifyServesAndRecords(t *testing.T) {
	m := verifycache.New(0)
	a, b := m.View(), m.View()
	addr, pk, rn := binding(t, 1)

	if !a.VerifyCGA(addr, pk, rn) {
		t.Fatal("honest binding rejected")
	}
	if !b.VerifyCGA(addr, pk, rn) {
		t.Fatal("honest binding rejected on the served path")
	}
	// A forged binding (wrong modifier) is computed once and its negative
	// verdict served thereafter.
	if a.VerifyCGA(addr, pk, rn+1) {
		t.Fatal("forged binding accepted")
	}
	if b.VerifyCGA(addr, pk, rn+1) {
		t.Fatal("forged binding accepted from the memo")
	}
	want := verifycache.Stats{CGAHits: 2, CGAMisses: 2}
	if got := m.Stats(); got != want {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", got)
	}
	if got := b.Stats(); got != (verifycache.Stats{CGAHits: 2}) {
		t.Fatalf("node B stats = %+v, want its 2 served lookups", got)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if !m.Forget(addr, pk, rn) || m.Len() != 1 {
		t.Fatalf("Forget did not drop the honest binding (Len %d)", m.Len())
	}
	if !b.VerifyCGA(addr, pk, rn) || b.Stats().CGAMisses != 1 {
		t.Fatalf("forgotten binding was not recomputed: %+v", b.Stats())
	}
}

// A nil memo is the "off" configuration sharing the same call sites:
// every check computes directly, nothing is recorded, every method is
// safe.
func TestNilTableComputesDirectly(t *testing.T) {
	var m *verifycache.Memo
	v := m.View()
	addr, pk, rn := binding(t, 2)
	if !v.VerifyCGA(addr, pk, rn) {
		t.Fatal("nil memo rejected an honest binding")
	}
	if v.VerifyCGA(addr, pk, rn+1) {
		t.Fatal("nil memo accepted a forged binding")
	}
	m.SetParanoid(true)
	if m.Forget(addr, pk, rn) {
		t.Fatal("nil memo forgot a binding it never held")
	}
	if m.Len() != 0 || m.Stats() != (verifycache.Stats{}) || v.Stats() != (verifycache.Stats{}) {
		t.Fatalf("nil memo recorded traffic: %+v / %+v", m.Stats(), v.Stats())
	}
}
