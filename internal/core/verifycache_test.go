package core

import (
	"math/rand"
	"testing"

	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/verifycache"
	"sbr6/internal/wire"
)

// Adversarial probes of the verification memo: every sequence of honest
// and forged messages must produce exactly the verdicts the direct
// verifier produces, no matter what the memo has seen first or which node
// on the event loop saw it. The keys are digests of the full verified
// content, so these tests are the executable form of the security
// argument in internal/verifycache's package doc.

// newMemoNodes builds standalone configured nodes on one simulator, all
// attached to one memo of the given bound (none when entries < 0), plus
// honest identities to build chains from.
func newMemoNodes(t *testing.T, count, entries int) ([]*Node, *verifycache.Memo, []*identity.Identity) {
	t.Helper()
	s := sim.New(1)
	medium := radio.New(s, radio.DefaultConfig())
	dnsIdent, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(1)), "dns")
	if err != nil {
		t.Fatal(err)
	}
	var memo *verifycache.Memo
	if entries >= 0 {
		memo = verifycache.New(entries)
	}
	nodes := make([]*Node, count)
	for i := range nodes {
		ident, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(2+int64(i))), "")
		if err != nil {
			t.Fatal(err)
		}
		n := New(s, medium, radio.NodeID(i), ident, dnsIdent.Pub, DefaultConfig(), rand.New(rand.NewSource(100+int64(i))), nil)
		n.SetMemo(memo)
		medium.AddNode(radio.NodeID(i), func(sim.Time) geom.Point { return geom.Point{} }, n)
		n.StartConfigured()
		nodes[i] = n
	}
	var ids []*identity.Identity
	for i := 0; i < 4; i++ {
		id, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(10+int64(i))), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return nodes, memo, ids
}

// newCachedVerifier is newMemoNodes for a single node.
func newCachedVerifier(t *testing.T, entries int) (*Node, []*identity.Identity) {
	t.Helper()
	nodes, _, ids := newMemoNodes(t, 1, entries)
	return nodes[0], ids
}

func TestCacheHonestThenTamperedRejected(t *testing.T) {
	n, ids := newCachedVerifier(t, 0)
	honest := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)
	if err := n.verifySRR(honest); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	// Every component of the honest chain is now cached as valid. Each
	// tampered variant shares all but one field with cached content and
	// must still be rejected — a poisoned hit would mean a key collision.
	tampers := map[string]func(m *wire.RREQ){
		"flip source sig bit": func(m *wire.RREQ) { m.SrcSig[0] ^= 1 },
		"bump source rn":      func(m *wire.RREQ) { m.Srn++ },
		"swap source key":     func(m *wire.RREQ) { m.SPK = ids[3].Pub.Bytes() },
		"replay into new seq": func(m *wire.RREQ) { m.Seq++ },
		"flip hop sig bit":    func(m *wire.RREQ) { m.SRR[1].Sig[0] ^= 1 },
		"swap hop address":    func(m *wire.RREQ) { m.SRR[0].IP = ids[3].Addr },
		"strip hop key":       func(m *wire.RREQ) { m.SRR[0].PK = nil },
	}
	for name, tamper := range tampers {
		m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)
		tamper(m)
		if n.verifySRR(m) == nil {
			t.Errorf("%s: forged chain accepted after honest chain was cached", name)
		}
	}
	// And the honest original still verifies after all those negatives.
	if err := n.verifySRR(honest); err != nil {
		t.Fatalf("honest chain rejected after forgeries were cached: %v", err)
	}
}

func TestCacheForgedThenReplayedHonest(t *testing.T) {
	n, ids := newCachedVerifier(t, 0)
	// The adversary gets there first: a forged chain is verified (and its
	// rejection cached) before the honest one ever arrives.
	forged := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 3)
	forged.SrcSig = append([]byte(nil), forged.SrcSig...)
	forged.SrcSig[10] ^= 0xff
	if n.verifySRR(forged) == nil {
		t.Fatal("forged chain accepted")
	}
	// The cached negative must not shadow the honest content.
	if err := n.verifySRR(honestRREQ(ids[0], []*identity.Identity{ids[1]}, 3)); err != nil {
		t.Fatalf("honest chain rejected after forgery was cached: %v", err)
	}
	// Replaying the forgery keeps being rejected (now from cache).
	if n.verifySRR(forged) == nil {
		t.Fatal("replayed forgery accepted")
	}
	if hits := n.VerifyCacheStats().ChainHits; hits == 0 {
		t.Fatal("replayed forgery did not hit the chain memo")
	}
}

// An attacker splices individually-valid cached components into a new
// chain: hop 2's (cached, valid) attestation signature presented under hop
// 1's identity. Component caching must not let the splice through.
func TestCacheCrossSpliceRejected(t *testing.T) {
	n, ids := newCachedVerifier(t, 0)
	if err := n.verifySRR(honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 9)); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	spliced := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 9)
	spliced.SRR[0].Sig = spliced.SRR[1].Sig // valid for ids[2], presented as ids[1]'s
	if n.verifySRR(spliced) == nil {
		t.Fatal("spliced chain accepted")
	}
}

// A chain-memo hit must replay the exact crypto.verify accounting of the
// original walk, or cached and uncached runs would diverge in Results.
func TestChainMemoReplaysAccounting(t *testing.T) {
	n, ids := newCachedVerifier(t, 0)
	m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 11)

	before := n.Metrics().Get("crypto.verify")
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	first := n.Metrics().Get("crypto.verify") - before

	before = n.Metrics().Get("crypto.verify")
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	second := n.Metrics().Get("crypto.verify") - before

	if first != second {
		t.Fatalf("accounting diverged: first walk counted %v, memoized walk %v", first, second)
	}
	if first != 3 { // source + two hops
		t.Fatalf("first walk counted %v verifications, want 3", first)
	}
	st := n.VerifyCacheStats()
	if st.ChainHits != 1 {
		t.Fatalf("chain hits = %d, want 1", st.ChainHits)
	}
	if st.SigMisses != 3 {
		t.Fatalf("primitive sig ops = %d, want 3 (memo must absorb the second walk)", st.SigMisses)
	}
	// A failing walk replays its (shorter) accounting too.
	bad := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 12)
	bad.SRR[1].Sig = nil
	before = n.Metrics().Get("crypto.verify")
	if n.verifySRR(bad) == nil {
		t.Fatal("tampered chain accepted")
	}
	failFirst := n.Metrics().Get("crypto.verify") - before
	before = n.Metrics().Get("crypto.verify")
	if n.verifySRR(bad) == nil {
		t.Fatal("tampered chain accepted on replay")
	}
	if failSecond := n.Metrics().Get("crypto.verify") - before; failSecond != failFirst {
		t.Fatalf("failure accounting diverged: %v then %v", failFirst, failSecond)
	}
}

// A node without a memo records nothing and changes nothing.
func TestDisabledCacheRecordsNothing(t *testing.T) {
	n, ids := newCachedVerifier(t, -1)
	m := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 5)
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	if got := n.VerifyCacheStats(); got.Hits() != 0 || got.Misses() != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", got)
	}
}

// Cross-node probes: two nodes sharing one memo (the serial and
// same-region shapes) must each reach exactly the verdicts a lone node
// reaches, whatever order honest and forged content arrives in and
// whichever node sees it first.

// The forger reaches node A first: its chain's forged binding is rejected
// there, and node B must reject it too, served the shared negative from
// either half of the memo. "memo+table" replays A's exact chain, so B is
// served the whole chain verdict; "table-only" sends B a chain it has never
// seen (another sequence number) carrying the same forged source binding,
// so B walks the chain and is served the binding verdict alone.
func TestBindTableForgedNegativeSharedAcrossNodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seqAtB uint32
		served func(before, after verifycache.Stats) bool
	}{
		{"memo+table", 3, func(before, after verifycache.Stats) bool {
			return after.ChainHits == before.ChainHits+1
		}},
		{"table-only", 4, func(before, after verifycache.Stats) bool {
			return after.ChainMisses == before.ChainMisses+1 && after.CGAHits == before.CGAHits+1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, _, ids := newMemoNodes(t, 2, 0)
			a, b := nodes[0], nodes[1]
			forged := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 3)
			forged.Srn++ // break the source's CGA binding
			if a.verifySRR(forged) == nil {
				t.Fatal("node A accepted a chain with a forged binding")
			}
			atB := honestRREQ(ids[0], []*identity.Identity{ids[1]}, tc.seqAtB)
			atB.Srn++
			before := b.VerifyCacheStats()
			if b.verifySRR(atB) == nil {
				t.Fatal("node B accepted a forged binding another node already rejected")
			}
			if after := b.VerifyCacheStats(); !tc.served(before, after) {
				t.Fatalf("node B's rejection did not come from the shared memo: %+v -> %+v", before, after)
			}
			// The honest chain under the same identity still verifies at both.
			honest := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 3)
			if err := a.verifySRR(honest); err != nil {
				t.Fatalf("node A rejected the honest chain: %v", err)
			}
			if err := b.verifySRR(honest); err != nil {
				t.Fatalf("node B rejected the honest chain: %v", err)
			}
		})
	}
}

// A forged hop signature rejected at node A is rejected at node B from the
// memo, even inside a chain B has never seen: the signature verdict is
// shared on its own, not only as part of A's chain.
func TestMemoForgedHopSignatureSharedAcrossNodes(t *testing.T) {
	nodes, _, ids := newMemoNodes(t, 2, 0)
	a, b := nodes[0], nodes[1]
	forgedHop := ids[0].Sign(wire.SigHop(ids[1].Addr, 5)) // ids[1]'s slot, ids[0]'s key
	viaA := honestRREQ(ids[2], []*identity.Identity{ids[1]}, 5)
	viaA.SRR[0].Sig = forgedHop
	if a.verifySRR(viaA) == nil {
		t.Fatal("node A accepted a forged hop signature")
	}
	viaB := honestRREQ(ids[3], []*identity.Identity{ids[1]}, 5) // another source, same forged hop
	viaB.SRR[0].Sig = forgedHop
	before := b.VerifyCacheStats()
	if b.verifySRR(viaB) == nil {
		t.Fatal("node B accepted a forged hop signature another node already rejected")
	}
	after := b.VerifyCacheStats()
	if after.ChainMisses != before.ChainMisses+1 || after.SigHits != before.SigHits+1 {
		t.Fatalf("node B walked a new chain but was not served the forged hop from the memo: %+v -> %+v", before, after)
	}
}

// The honest owner reaches node A first; tampered variants arriving at
// node B must each be rejected — the shared positive covers exactly the
// digested bytes, nothing wider — including a chain that shares A's whole
// honest prefix and differs only in its tail.
func TestMemoHonestThenTamperedAcrossNodes(t *testing.T) {
	nodes, _, ids := newMemoNodes(t, 2, 0)
	a, b := nodes[0], nodes[1]
	if err := a.verifySRR(honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	tampers := map[string]func(m *wire.RREQ){
		"bump source rn":    func(m *wire.RREQ) { m.Srn++ },
		"swap source key":   func(m *wire.RREQ) { m.SPK = ids[3].Pub.Bytes() },
		"swap hop address":  func(m *wire.RREQ) { m.SRR[0].IP = ids[3].Addr },
		"bump hop rn":       func(m *wire.RREQ) { m.SRR[1].Rn++ },
		"flip tail sig bit": func(m *wire.RREQ) { m.SRR[1].Sig[0] ^= 1 },
		"append forged hop": func(m *wire.RREQ) {
			m.SRR = append(m.SRR, wire.HopAttestation{
				IP: ids[3].Addr, PK: ids[3].Pub.Bytes(), Rn: ids[3].Rn,
				Sig: ids[0].Sign(wire.SigHop(ids[3].Addr, m.Seq)),
			})
		},
	}
	for name, tamper := range tampers {
		m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)
		tamper(m)
		if b.verifySRR(m) == nil {
			t.Errorf("%s: forged chain accepted at node B off node A's memoized verdicts", name)
		}
	}
	// The tampered tails walked A's honest prefix out of the memo.
	if st := b.VerifyCacheStats(); st.CGAHits == 0 || st.SigHits == 0 {
		t.Fatalf("node B never reused node A's honest prefix: %+v", st)
	}
	// And B accepts the honest original after all those negatives.
	if err := b.verifySRR(honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)); err != nil {
		t.Fatalf("honest chain rejected at node B after forgeries: %v", err)
	}
}

// The memo moves primitives, never logical accounting: node B's walk of a
// chain node A already verified must count exactly the crypto.verify
// requests node A's did, while the memo serves it as one chain hit.
func TestMemoPreservesAccountingAcrossNodes(t *testing.T) {
	nodes, memo, ids := newMemoNodes(t, 2, 0)
	a, b := nodes[0], nodes[1]
	m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 11)

	beforeA := a.Metrics().Get("crypto.verify")
	if err := a.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	walkA := a.Metrics().Get("crypto.verify") - beforeA

	base := memo.Stats()
	beforeB := b.Metrics().Get("crypto.verify")
	if err := b.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	walkB := b.Metrics().Get("crypto.verify") - beforeB

	if walkA != walkB {
		t.Fatalf("logical accounting diverged across nodes: A counted %v, B counted %v", walkA, walkB)
	}
	if walkA != 3 { // source + two hops
		t.Fatalf("walk counted %v verifications, want 3", walkA)
	}
	if got := memo.Stats(); got.ChainHits != base.ChainHits+1 || got.Misses() != base.Misses() {
		t.Fatalf("node B recomputed a chain node A already verified: %+v -> %+v", base, got)
	}
}

// The chain walk reports how many signature verifications it ran before
// deciding — the count a chain hit replays — so it must stop counting
// exactly where the walk stops, for every failure point.
func TestWalkCountsVerifiesUpToFailure(t *testing.T) {
	n, ids := newCachedVerifier(t, -1)
	hops := []*identity.Identity{ids[1], ids[2]}
	for name, tc := range map[string]struct {
		tamper func(m *wire.RREQ)
		want   float64
	}{
		"honest":          {func(*wire.RREQ) {}, 3},
		"source key":      {func(m *wire.RREQ) { m.SPK = m.SPK[:3] }, 0},
		"source binding":  {func(m *wire.RREQ) { m.Srn++ }, 0},
		"source sig":      {func(m *wire.RREQ) { m.SrcSig[0] ^= 1 }, 1},
		"hop 0 key":       {func(m *wire.RREQ) { m.SRR[0].PK = m.SRR[0].PK[:3] }, 1},
		"hop 0 binding":   {func(m *wire.RREQ) { m.SRR[0].Rn++ }, 1},
		"hop 0 signature": {func(m *wire.RREQ) { m.SRR[0].Sig[0] ^= 1 }, 2},
		"hop 1 binding":   {func(m *wire.RREQ) { m.SRR[1].Rn++ }, 2},
		"hop 1 signature": {func(m *wire.RREQ) { m.SRR[1].Sig[0] ^= 1 }, 3},
	} {
		m := honestRREQ(ids[0], hops, 21)
		tc.tamper(m)
		before := n.Metrics().Get("crypto.verify")
		err := n.verifySRR(m)
		if (err == nil) != (name == "honest") {
			t.Errorf("%s: verdict %v", name, err)
		}
		if got := n.Metrics().Get("crypto.verify") - before; got != tc.want {
			t.Errorf("%s: walk counted %v verifications, want %v", name, got, tc.want)
		}
	}
}
