package verifycache

import (
	"errors"
	"math/rand"
	"testing"

	"sbr6/internal/cga"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
)

func newIdent(t *testing.T, seed int64) *identity.Identity {
	t.Helper()
	id, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(seed)), "")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// viewOf returns a node handle on m, the way core attaches one per node.
func viewOf(m *Memo) *View {
	v := m.View()
	return &v
}

func TestCGAMemoAgreesWithDirect(t *testing.T) {
	m := New(64)
	v := viewOf(m)
	id := newIdent(t, 1)
	other := newIdent(t, 2)

	cases := []struct {
		addr ipv6.Addr
		pk   []byte
		rn   uint64
	}{
		{id.Addr, id.Pub.Bytes(), id.Rn},                       // valid
		{id.Addr, other.Pub.Bytes(), id.Rn},                    // wrong key
		{id.Addr, id.Pub.Bytes(), id.Rn + 1},                   // wrong modifier
		{other.Addr, id.Pub.Bytes(), id.Rn},                    // wrong address
		{ipv6.MustParse("2001:db8::1"), id.Pub.Bytes(), id.Rn}, // not site-local
	}
	for i, tc := range cases {
		want := cga.Verify(tc.addr, tc.pk, tc.rn)
		if got := v.VerifyCGA(tc.addr, tc.pk, tc.rn); got != want {
			t.Fatalf("case %d: first (miss) result %v, want %v", i, got, want)
		}
		if got := v.VerifyCGA(tc.addr, tc.pk, tc.rn); got != want {
			t.Fatalf("case %d: second (hit) result %v, want %v", i, got, want)
		}
	}
	st := v.Stats()
	if st.CGAMisses != uint64(len(cases)) || st.CGAHits != uint64(len(cases)) {
		t.Fatalf("stats = %+v, want %d misses and %d hits", st, len(cases), len(cases))
	}
	if m.Stats() != st {
		t.Fatalf("memo stats %+v differ from its only view's %+v", m.Stats(), st)
	}
}

func TestSigMemoAgreesWithDirect(t *testing.T) {
	v := viewOf(New(64))
	id := newIdent(t, 3)
	msg := []byte("the message")
	sig := id.Sign(msg)

	if !v.VerifySig(id.Pub, msg, sig) || !v.VerifySig(id.Pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	// A memoized positive for (pk, msg, sig) must not leak to any tampered
	// variant: each differing tuple is its own key.
	bad := append([]byte(nil), sig...)
	bad[0] ^= 1
	if v.VerifySig(id.Pub, msg, bad) {
		t.Fatal("tampered signature accepted")
	}
	if v.VerifySig(id.Pub, []byte("the message2"), sig) {
		t.Fatal("signature accepted over different message")
	}
	if v.VerifySig(newIdent(t, 4).Pub, msg, sig) {
		t.Fatal("signature accepted under different key")
	}
	// And the memoized negatives stay negative.
	if v.VerifySig(id.Pub, msg, bad) {
		t.Fatal("memoized negative flipped")
	}
	st := v.Stats()
	if st.SigHits != 2 || st.SigMisses != 4 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

type errChain string

func (e errChain) Error() string { return string(e) }

// chainOf is a chain walk that reports a fixed verdict and counts its runs.
func chainOf(err error, verifies int, runs *int) func(*View) (error, int) {
	return func(*View) (error, int) {
		*runs++
		return err, verifies
	}
}

func content(s string) func(*Digest) {
	return func(d *Digest) { d.Bytes([]byte(s)) }
}

func TestChainMemo(t *testing.T) {
	v := viewOf(New(64))
	runs := 0
	stored := errChain("nope")
	for i := 0; i < 2; i++ {
		err, verifies := v.VerifyChain(identity.SuiteEd25519, content("chain"), chainOf(stored, 5, &runs))
		if err != stored || verifies != 5 {
			t.Fatalf("call %d = (%v, %d), want the walk's verdict", i, err, verifies)
		}
	}
	if runs != 1 {
		t.Fatalf("walk ran %d times, want once (the second call is a hit)", runs)
	}
	// nil error (accepted chain) round-trips too.
	for i := 0; i < 2; i++ {
		if err, verifies := v.VerifyChain(identity.SuiteEd25519, content("chain2"), chainOf(nil, 3, &runs)); err != nil || verifies != 3 {
			t.Fatalf("nil-error call %d = (%v, %d)", i, err, verifies)
		}
	}
	// The suite the walk parses keys under is part of the key: the same
	// bytes under another suite are a different chain.
	if _, verifies := v.VerifyChain(identity.SuiteRSA1024, content("chain2"), chainOf(nil, 7, &runs)); verifies != 7 {
		t.Fatalf("chain under another suite served the ed25519 verdict (%d verifies)", verifies)
	}
	if st := v.Stats(); st.ChainHits != 2 || st.ChainMisses != 3 || runs != 3 {
		t.Fatalf("stats = %+v after %d walks, want 2 hits / 3 misses", st, runs)
	}
}

// A verdict promoted out of the old generation is held exactly once: the
// promotion moves it, so Len never double-counts and the latest copy is
// the one served.
func TestChainStoreReplacesExistingKey(t *testing.T) {
	m := New(4) // two generations of two
	v := viewOf(m)
	runs := 0
	v.VerifyChain(identity.SuiteEd25519, content("dup"), chainOf(errChain("first"), 1, &runs))
	v.VerifyChain(identity.SuiteEd25519, content("a"), chainOf(nil, 0, &runs))
	v.VerifyChain(identity.SuiteEd25519, content("b"), chainOf(nil, 0, &runs)) // rotates "dup" into the old generation
	if m.Len() != 3 {
		t.Fatalf("len = %d, want 3", m.Len())
	}
	err, verifies := v.VerifyChain(identity.SuiteEd25519, content("dup"), chainOf(errChain("second"), 2, &runs))
	if err == nil || err.Error() != "first" || verifies != 1 {
		t.Fatalf("promoted lookup = (%v, %d), want the stored verdict", err, verifies)
	}
	if m.Len() != 3 {
		t.Fatalf("len = %d after promotion, want 3 (the entry moved, it was not copied)", m.Len())
	}
	if runs != 3 {
		t.Fatalf("walk ran %d times, want 3 (the promotion is a hit)", runs)
	}
}

// Two generations keep recency without a list: an entry hit since the last
// swap survives the next one, an untouched entry does not.
func TestLRUBoundAndEviction(t *testing.T) {
	m := New(4) // two generations of two
	v := viewOf(m)
	id := newIdent(t, 5)
	hit := func(i int) bool {
		base := v.Stats().CGAHits
		v.VerifyCGA(ipv6.SiteLocal(0, uint64(i+1)), id.Pub.Bytes(), 7)
		return v.Stats().CGAHits > base
	}
	for i := 0; i < 3; i++ {
		if hit(i) {
			t.Fatalf("phantom hit on fresh entry %d", i)
		}
	}
	// 0 and 1 now sit in the old generation; touching 0 moves it back.
	if !hit(0) {
		t.Fatal("an entry in the old generation missed")
	}
	hit(3) // swap: drops the untouched 1, keeps the touched 0
	if m.Len() > 4 {
		t.Fatalf("len = %d, want at most the bound 4", m.Len())
	}
	if !hit(0) {
		t.Fatal("a recently used entry was evicted before older ones")
	}
	if hit(1) {
		t.Fatal("an untouched entry survived the swap")
	}
}

// The bound holds against a flood of unique content — the strong
// adversary minting fresh forgeries — and the memo keeps serving what was
// just inserted, so a long session still hits after the bound is reached.
func TestBoundHoldsUnderUniqueFlood(t *testing.T) {
	const bound = 64
	m := New(bound)
	v := viewOf(m)
	id := newIdent(t, 8)
	for i := 0; i < 3*bound; i++ {
		a := ipv6.SiteLocal(0, uint64(i+1))
		v.VerifyCGA(a, id.Pub.Bytes(), id.Rn)
		if m.Len() > bound {
			t.Fatalf("after %d unique bindings len = %d, want <= %d", i+1, m.Len(), bound)
		}
		base := v.Stats()
		v.VerifyCGA(a, id.Pub.Bytes(), id.Rn)
		if v.Stats().CGAHits != base.CGAHits+1 {
			t.Fatalf("binding %d missed right after it was inserted", i)
		}
	}
	if !v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) || !v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) {
		t.Fatal("honest binding rejected after the flood")
	}
}

func TestNilCacheComputesDirectly(t *testing.T) {
	id := newIdent(t, 6)
	msg := []byte("m")
	for name, v := range map[string]*View{"nil view": nil, "view of nil memo": viewOf(nil)} {
		if !v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) {
			t.Fatalf("%s rejected a valid binding", name)
		}
		if !v.VerifySig(id.Pub, msg, id.Sign(msg)) {
			t.Fatalf("%s rejected a valid signature", name)
		}
		runs := 0
		for i := 0; i < 2; i++ {
			v.VerifyChain(identity.SuiteEd25519, content("c"), chainOf(nil, 1, &runs))
		}
		if runs != 2 {
			t.Fatalf("%s memoized a chain walk", name)
		}
		if v.Stats() != (Stats{}) {
			t.Fatalf("%s recorded traffic: %+v", name, v.Stats())
		}
	}
	var m *Memo
	m.SetParanoid(true) // must not panic
	if m.Len() != 0 || m.Stats() != (Stats{}) || m.Forget(id.Addr, id.Pub.Bytes(), id.Rn) {
		t.Fatal("nil memo reported state")
	}
}

// Length-prefixing means adjacent variable-length fields can never alias:
// ("ab","c") and ("a","bc") must produce different keys even though their
// concatenation is identical.
func TestDigestFieldBoundaries(t *testing.T) {
	m := New(0)
	d := m.begin(tagChain)
	d.Bytes([]byte("ab"))
	d.Bytes([]byte("c"))
	k1 := d.sum()
	d = m.begin(tagChain)
	d.Bytes([]byte("a"))
	d.Bytes([]byte("bc"))
	if d.sum() == k1 {
		t.Fatal("field boundaries alias")
	}
	// Different domain tags never alias either.
	d = m.begin(tagCGA)
	d.Bytes([]byte("x"))
	ka := d.sum()
	d = m.begin(tagSig)
	d.Bytes([]byte("x"))
	if d.sum() == ka {
		t.Fatal("domain tags alias")
	}
}

// Every field of a binding is part of its key.
func TestCGAKeyCoversEveryField(t *testing.T) {
	m := New(0)
	id, other := newIdent(t, 9), newIdent(t, 10)
	base := m.cgaKey(id.Addr, id.Pub.Bytes(), id.Rn)
	for name, k := range map[string]key{
		"addr": m.cgaKey(other.Addr, id.Pub.Bytes(), id.Rn),
		"pk":   m.cgaKey(id.Addr, other.Pub.Bytes(), id.Rn),
		"rn":   m.cgaKey(id.Addr, id.Pub.Bytes(), id.Rn+1),
		"nil":  m.cgaKey(id.Addr, nil, id.Rn),
	} {
		if k == base {
			t.Errorf("changing %s left the key unchanged", name)
		}
	}
}

func TestStatsAggregate(t *testing.T) {
	a := Stats{CGAHits: 1, SigMisses: 2, ChainHits: 3}
	b := Stats{CGAHits: 10, SigHits: 5, ChainMisses: 6}
	a.Add(b)
	if a.CGAHits != 11 || a.SigHits != 5 || a.SigMisses != 2 || a.ChainHits != 3 || a.ChainMisses != 6 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.Hits() != 11+5+3 || a.Misses() != 2+6 {
		t.Fatalf("totals: hits=%d misses=%d", a.Hits(), a.Misses())
	}
}

// Each view counts its own lookups; the memo counts everyone's.
func TestViewStatsSumToMemo(t *testing.T) {
	m := New(0)
	a, b := viewOf(m), viewOf(m)
	id := newIdent(t, 11)
	msg := []byte("m")
	sig := id.Sign(msg)
	a.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn)
	b.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn)
	b.VerifySig(id.Pub, msg, sig)
	a.VerifySig(id.Pub, msg, sig)
	if a.Stats() != (Stats{CGAMisses: 1, SigHits: 1}) || b.Stats() != (Stats{CGAHits: 1, SigMisses: 1}) {
		t.Fatalf("view stats a=%+v b=%+v", a.Stats(), b.Stats())
	}
	var sum Stats
	sum.Add(a.Stats())
	sum.Add(b.Stats())
	if sum != m.Stats() {
		t.Fatalf("views sum to %+v, memo says %+v", sum, m.Stats())
	}
}

func TestForgetDropsBinding(t *testing.T) {
	m := New(0)
	v := viewOf(m)
	id := newIdent(t, 12)
	if m.Forget(id.Addr, id.Pub.Bytes(), id.Rn) {
		t.Fatal("forgot a binding that was never memoized")
	}
	v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn)
	if !m.Forget(id.Addr, id.Pub.Bytes(), id.Rn) || m.Len() != 0 {
		t.Fatalf("binding not forgotten (len %d)", m.Len())
	}
	base := v.Stats()
	if !v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) || v.Stats().CGAMisses != base.CGAMisses+1 {
		t.Fatal("a forgotten binding must be recomputed, and still verify")
	}
}

// Paranoid mode is the differential arm: a verdict planted in the memo
// that the primitive contradicts must panic on its first hit, for every
// check kind. Unpoisoned hits pass through.
func TestParanoidPanicsOnPoisonedVerdict(t *testing.T) {
	id := newIdent(t, 13)
	msg := []byte("m")
	sig := id.Sign(msg)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: paranoid hit served a poisoned verdict without panicking", name)
			}
		}()
		f()
	}
	setup := func() (*Memo, *View) {
		m := New(0)
		m.SetParanoid(true)
		return m, viewOf(m)
	}

	m, v := setup()
	if !v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) || !v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) {
		t.Fatal("paranoid memo rejected an honest binding")
	}
	m.young[m.cgaKey(id.Addr, id.Pub.Bytes(), id.Rn)] = verdict{ok: false}
	mustPanic("CGA", func() { v.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) })

	m, v = setup()
	v.VerifySig(id.Pub, msg, sig)
	for k := range m.young {
		m.young[k] = verdict{ok: false}
	}
	mustPanic("signature", func() { v.VerifySig(id.Pub, msg, sig) })

	// A chain hit re-walks with direct computation; the planted verdict
	// disagrees with the walk in its error, then in its accounting.
	for name, planted := range map[string]verdict{
		"chain error":      {err: errChain("forged"), verifies: 1},
		"chain accounting": {verifies: 2},
	} {
		m, v = setup()
		runs := 0
		v.VerifyChain(identity.SuiteEd25519, content("c"), chainOf(nil, 1, &runs))
		for k := range m.young {
			m.young[k] = planted
		}
		mustPanic(name, func() {
			v.VerifyChain(identity.SuiteEd25519, content("c"), chainOf(nil, 1, &runs))
		})
	}
}

// The paranoid re-walk computes directly: it is handed no memo, so it can
// neither be served a poisoned component verdict nor count a lookup.
func TestParanoidChainRewalksDirectly(t *testing.T) {
	m := New(0)
	m.SetParanoid(true)
	v := viewOf(m)
	var handed []*View
	walk := func(w *View) (error, int) {
		handed = append(handed, w)
		return nil, 1
	}
	v.VerifyChain(identity.SuiteEd25519, content("c"), walk)
	v.VerifyChain(identity.SuiteEd25519, content("c"), walk)
	if len(handed) != 2 || handed[0] != v || handed[1] != nil {
		t.Fatalf("walks were handed %v, want the node's view then none", handed)
	}
}

// Adversarial poisoning probes at the memo layer: two views of one memo
// model two nodes on the same event loop. A forged binding's negative
// verdict computed at one node must be served — negative, never positive —
// to the other, and an honest binding's positive verdict must cover
// exactly its own bytes.
func TestForgedNegativeServedAcrossNodes(t *testing.T) {
	m := New(0)
	a, b := viewOf(m), viewOf(m)
	id := newIdent(t, 14)

	if a.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn+1) {
		t.Fatal("node A accepted a forged binding")
	}
	if b.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn+1) {
		t.Fatal("node B accepted a forged binding another node already rejected")
	}
	if got := m.Stats(); got != (Stats{CGAHits: 1, CGAMisses: 1}) {
		t.Fatalf("memo stats = %+v, want the forgery computed once and served once", got)
	}
	// A forged signature rejected at A is rejected at B from the memo.
	msg := []byte("hop")
	forged := id.Sign(msg)
	forged[3] ^= 0x40
	if a.VerifySig(id.Pub, msg, forged) || b.VerifySig(id.Pub, msg, forged) {
		t.Fatal("forged signature accepted")
	}
	if b.Stats().SigHits != 1 {
		t.Fatal("node B's rejection of the forged signature did not come from the memo")
	}
	// The honest binding under the same identity is unaffected by the
	// memoized negative next to it.
	if !a.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) || !b.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) {
		t.Fatal("honest binding rejected after its forged neighbor was memoized")
	}
}

func TestSharedPositiveDoesNotShadowForgeries(t *testing.T) {
	m := New(0)
	a, b := viewOf(m), viewOf(m)
	id, other := newIdent(t, 15), newIdent(t, 16)
	addr, pk, rn := id.Addr, id.Pub.Bytes(), id.Rn

	if !a.VerifyCGA(addr, pk, rn) {
		t.Fatal("node A rejected the honest binding")
	}
	badAddr := addr
	badAddr[15] ^= 1
	for name, probe := range map[string]func() bool{
		"bumped rn":    func() bool { return b.VerifyCGA(addr, pk, rn+1) },
		"swapped key":  func() bool { return b.VerifyCGA(addr, other.Pub.Bytes(), rn) },
		"moved addr":   func() bool { return b.VerifyCGA(badAddr, pk, rn) },
		"stripped key": func() bool { return b.VerifyCGA(addr, nil, rn) },
	} {
		if probe() {
			t.Errorf("%s: forged variant accepted off the shared positive", name)
		}
	}
	// And B still gets the honest verdict — from the memo, not a recompute.
	base := b.Stats()
	if !b.VerifyCGA(addr, pk, rn) {
		t.Fatal("node B rejected the honest binding")
	}
	if got := b.Stats(); got.CGAHits != base.CGAHits+1 || got.CGAMisses != base.CGAMisses {
		t.Fatalf("honest verdict was not served from the memo: %+v -> %+v", base, got)
	}
}

// Every verdict the memo serves equals the primitive's, over a mixed
// population of honest and forged bindings seen by several nodes.
func TestStoredVerdictsMatchPrimitive(t *testing.T) {
	m := New(16) // small, so the run crosses several generation swaps
	views := []*View{viewOf(m), viewOf(m), viewOf(m)}
	rng := rand.New(rand.NewSource(17))
	ids := make([]*identity.Identity, 12)
	for i := range ids {
		ids[i] = newIdent(t, 100+int64(i))
	}
	for i := 0; i < 400; i++ {
		id := ids[rng.Intn(len(ids))]
		rn := id.Rn
		if rng.Intn(3) == 0 {
			rn += uint64(rng.Intn(4) + 1)
		}
		want := cga.Verify(id.Addr, id.Pub.Bytes(), rn)
		if got := views[i%len(views)].VerifyCGA(id.Addr, id.Pub.Bytes(), rn); got != want {
			t.Fatalf("step %d: memo said %v, primitive %v", i, got, want)
		}
	}
	if st := m.Stats(); st.CGAHits == 0 {
		t.Fatalf("no hits over the probe (%+v); the check is vacuous", st)
	}
}

// A check computes one digest into the memo's reused scratch buffer: once
// warm, a hit allocates nothing.
func TestHitsDoNotAllocate(t *testing.T) {
	v := viewOf(New(0))
	id := newIdent(t, 18)
	pk := id.Pub.Bytes()
	msg := []byte("m")
	sig := id.Sign(msg)
	v.VerifyCGA(id.Addr, pk, id.Rn)
	v.VerifySig(id.Pub, msg, sig)
	runs := 0
	walk := chainOf(errors.New("x"), 1, &runs)
	v.VerifyChain(identity.SuiteEd25519, content("c"), walk)
	chain := content("c")
	allocs := testing.AllocsPerRun(100, func() {
		v.VerifyCGA(id.Addr, pk, id.Rn)
		v.VerifySig(id.Pub, msg, sig)
		v.VerifyChain(identity.SuiteEd25519, chain, walk)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per warm hit round, want 0", allocs)
	}
	if runs != 1 {
		t.Fatalf("walk re-ran %d times on hits", runs-1)
	}
}
