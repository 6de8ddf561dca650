package core

import (
	"math"
	"testing"

	"sbr6/internal/geom"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/wire"
)

// star is a transmitter (node 0) with k receivers on a 100 m circle
// around it: every receiver hears every broadcast node 0 sends.
func star(t testing.TB, k int) *testnet {
	pos := []geom.Point{{X: 500, Y: 500}}
	for i := 0; i < k; i++ {
		a := 2 * math.Pi * float64(i) / float64(k)
		pos = append(pos, geom.Point{X: 500 + 100*math.Cos(a), Y: 500 + 100*math.Sin(a)})
	}
	return buildNet(t, fastConfig(true), pos, nil)
}

// duplicateAREQ encodes an AREQ flood relayed by node 0 and marks it seen
// at every receiver, so each delivery stops at the dedup check: the
// receive path's fixed cost, with no relay or reply behind it.
func duplicateAREQ(tn *testnet) []byte {
	m := &wire.AREQ{
		SIP: ipv6.SiteLocal(0, 0x5eed), Seq: 3, Ch: 0xc0ffee, DN: "probe",
		RR: []ipv6.Addr{ipv6.SiteLocal(0, 0xa1), tn.nodes[0].Addr()},
	}
	for _, n := range tn.nodes[1:] {
		n.areqSeen.Seen(m.SIP, areqKey(m))
	}
	return wire.Encode(&wire.Packet{Src: m.SIP, Dst: ipv6.AllNodes, TTL: 5, Msg: m})
}

// recorder is a pass-through Behavior remembering every packet it saw.
type recorder struct{ pkts []*wire.Packet }

func (r *recorder) Intercept(_ *Node, pkt *wire.Packet, _ []byte) bool {
	r.pkts = append(r.pkts, pkt)
	return false
}

func (*recorder) DropForward(*Node, *wire.Packet) bool { return false }

// TestBroadcastDecodedOnce delivers one broadcast to 12 receivers and
// proves it was decoded exactly once: wire.Decode returns a fresh packet
// on every call, so 12 receivers holding the same *wire.Packet means one
// decode between them. The receivers still each count the frame and
// learn the transmitter, and a malformed frame is counted at every
// receiver from its one shared decode error.
func TestBroadcastDecodedOnce(t *testing.T) {
	const k = 12
	tn := star(t, k)
	frame := duplicateAREQ(tn)
	rec := &recorder{}
	for _, n := range tn.nodes[1:] {
		n.Behavior = rec
	}
	tn.medium.Broadcast(0, frame)
	tn.s.Run()
	if len(rec.pkts) != k {
		t.Fatalf("%d receivers saw the broadcast, want %d", len(rec.pkts), k)
	}
	for i, p := range rec.pkts {
		if p != rec.pkts[0] {
			t.Fatalf("receiver %d got its own decode: %d decodes for one transmission", i+1, k)
		}
	}
	if got, want := wire.Encode(rec.pkts[0]), frame; string(got) != string(want) {
		t.Fatal("shared packet no longer encodes to the transmitted frame")
	}
	for i, n := range tn.nodes[1:] {
		if n.Metrics().Get("rx.frames") != 1 || n.Metrics().Get("rx.AREQ") != 0 {
			t.Fatalf("receiver %d: rx.frames %v rx.AREQ %v, want 1 and 0 (a duplicate)",
				i+1, n.Metrics().Get("rx.frames"), n.Metrics().Get("rx.AREQ"))
		}
		if id, ok := n.neighbors.Get(ndp.AddrKey{Addr: tn.nodes[0].Addr()}); !ok || id != tn.nodes[0].LinkID() {
			t.Fatalf("receiver %d did not learn the transmitter", i+1)
		}
	}

	tn.medium.Broadcast(0, frame[:len(frame)-1])
	tn.s.Run()
	for i, n := range tn.nodes[1:] {
		if n.Metrics().Get("rx.malformed") != 1 {
			t.Fatalf("receiver %d: rx.malformed = %v, want 1", i+1, n.Metrics().Get("rx.malformed"))
		}
	}
}

// TestDuplicateBroadcastAllocs bounds the allocations of delivering one
// duplicate broadcast to 12 receivers by those of a single wire.Decode of
// the frame: the transmit job, the delivery batch, the neighbour table,
// the flood seen-set and the counters add nothing, and the decode runs
// once, not twelve times.
func TestDuplicateBroadcastAllocs(t *testing.T) {
	tn := star(t, 12)
	frame := duplicateAREQ(tn)
	deliver := func() {
		tn.medium.Broadcast(0, frame)
		tn.s.Run()
	}
	deliver() // warm: recycled jobs, batches, events, resolved counters
	decode := testing.AllocsPerRun(100, func() {
		if _, err := wire.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(100, deliver)
	t.Logf("one decode: %.0f allocs; delivering to 12 receivers: %.0f allocs", decode, got)
	if decode == 0 || got > decode {
		t.Fatalf("delivering one duplicate broadcast to 12 receivers took %.0f allocs, want at most %.0f (one decode)", got, decode)
	}
}
