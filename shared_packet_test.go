package sbr6

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/wire"
)

// packetGuard checks the shared-decode contract on a running scenario:
// every receiver of one transmission gets the same *wire.Packet, so none
// may write through it. The guard wraps every node's Behavior and
// re-encodes the packet a receiver got against a copy of its frame on
// arrival, after the wrapped Intercept, and again when the next receiver
// (of this transmission or any later one) is reached — by then the
// previous receiver's whole dispatch has run. A mutation anywhere in the
// receive path therefore fails the check no later than the next
// delivery.
type packetGuard struct {
	pkt    *wire.Packet // the packet most recently handed to a receiver
	frame  []byte       // a copy of its frame
	checks int
	shared int // deliveries that reused the previous receiver's packet
	broken []string
}

func (g *packetGuard) verify(when string) {
	if g.pkt == nil {
		return
	}
	g.checks++
	if !bytes.Equal(wire.Encode(g.pkt), g.frame) && len(g.broken) < 5 {
		g.broken = append(g.broken, fmt.Sprintf("%s: %v", when, g.pkt))
	}
}

type guarded struct {
	inner core.Behavior // nil on honest nodes
	g     *packetGuard
}

func (b guarded) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	b.g.verify("after the previous receiver")
	if pkt == b.g.pkt {
		b.g.shared++
	}
	b.g.pkt, b.g.frame = pkt, append(b.g.frame[:0], raw...)
	b.g.verify("on arrival")
	consumed := b.inner != nil && b.inner.Intercept(n, pkt, raw)
	b.g.verify(fmt.Sprintf("after %T.Intercept", b.inner))
	return consumed
}

func (b guarded) DropForward(n *core.Node, pkt *wire.Packet) bool {
	return b.inner != nil && b.inner.DropForward(n, pkt)
}

// guardedRun builds spec at seed, wraps every node's Behavior in one
// guard, runs the scenario to completion and returns the guard and the
// adversaries' state by node.
func guardedRun(t *testing.T, spec *Scenario, seed int64) (*packetGuard, map[int]core.Behavior) {
	t.Helper()
	sess, err := newSession(spec, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	g := &packetGuard{}
	for _, n := range sess.sc.Nodes {
		n.Behavior = guarded{inner: n.Behavior, g: g}
	}
	sess.sc.Run()
	g.verify("at the end of the run")
	return g, sess.behaviors
}

// sharedPacketSpecs are the adversarial scenarios the guard runs: each
// Intercept-level attacker (forging black hole, impersonator, replayer,
// address clone) plus the packet tap on every honest node, on the
// default engine and on two regions, where boundary-crossing broadcasts
// share a parse slot across each region's receivers.
func sharedPacketSpecs(t *testing.T, taps *int) map[string]*Scenario {
	t.Helper()
	build := func(shards int, opts ...Option) *Scenario {
		opts = append(opts, WithTap(func(TapEvent) { *taps++ }))
		if shards > 0 {
			opts = append(opts, WithShards(shards))
		}
		sc, err := NewScenario(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	routed := func(shards int, advs ...Adversary) *Scenario {
		return build(shards,
			WithSeed(1), WithNodes(16), WithPlacement(PlaceGrid), WithFastTimers(),
			WithWarmup(time.Second), WithDuration(6*time.Second), WithCooldown(2*time.Second),
			WithFlows(
				Flow{From: 1, To: 15, Interval: 400 * time.Millisecond, Size: 64},
				Flow{From: 12, To: 3, Interval: 400 * time.Millisecond, Size: 64},
			),
			WithAdversaries(advs...))
	}
	clone := func(shards int) *Scenario {
		return build(shards,
			WithSeed(3), WithNodes(36), WithPlacement(PlaceGrid), WithFastTimers(),
			WithBootPolicy(BootPerCell), WithBootCellFraction(0.5), WithAuditSweep(time.Second),
			WithAdversaries(AddressClone(20, 1)),
			WithWarmup(5*time.Second), WithDuration(time.Second), WithCooldown(time.Second))
	}
	specs := map[string]*Scenario{}
	for _, shards := range []int{0, 2} {
		specs[fmt.Sprintf("attackers/shards=%d", shards)] = routed(shards,
			ForgingBlackHole(6), Impersonate(9, 15), Replay(5, 300*time.Millisecond))
		specs[fmt.Sprintf("clone/shards=%d", shards)] = clone(shards)
	}
	return specs
}

// TestSharedPacketReadOnly runs the adversary set under the guard: no
// receiver — honest, tapped or adversarial — may change the packet it
// shares with the other receivers of its transmission.
func TestSharedPacketReadOnly(t *testing.T) {
	taps := 0
	for name, spec := range sharedPacketSpecs(t, &taps) {
		g, advs := guardedRun(t, spec, spec.Seed())
		if len(g.broken) > 0 {
			t.Errorf("%s: a receiver mutated a shared packet:\n%v", name, g.broken)
		}
		if g.shared == 0 {
			t.Errorf("%s: no delivery shared a packet, the guard checked nothing shared", name)
		}
		t.Logf("%s: %d checks, %d shared deliveries", name, g.checks, g.shared)
		for node, b := range advs {
			acted := true
			switch a := b.(type) {
			case *attack.BlackHole:
				acted = a.ForgedReplies > 0
			case *attack.Impersonator:
				acted = a.ForgedReplies > 0
			case *attack.Replayer:
				acted = a.Replayed > 0
			case *attack.CloneAttacker:
				acted = a.AuditAdvsIgnored+a.SilencedAREQs > 0
			}
			if !acted {
				t.Errorf("%s: the %T on node %d never acted", name, b, node)
			}
		}
	}
	if taps == 0 {
		t.Fatal("the tap saw no receptions")
	}
}

// mutator is a receiver that breaks the contract: it decrements the TTL
// of every flood it hears in place.
type mutator struct{}

func (mutator) Intercept(_ *core.Node, pkt *wire.Packet, _ []byte) bool {
	if pkt.Flood() {
		pkt.TTL--
	}
	return false
}

func (mutator) DropForward(*core.Node, *wire.Packet) bool { return false }

// TestPacketGuardCatchesMutation keeps the guard honest: one mutating
// receiver among honest nodes must fail the check.
func TestPacketGuardCatchesMutation(t *testing.T) {
	spec, err := NewScenario(WithSeed(1), WithNodes(9), WithPlacement(PlaceGrid), WithFastTimers(),
		WithWarmup(time.Second), WithDuration(2*time.Second), WithCooldown(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newSession(spec, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := &packetGuard{}
	for i, n := range sess.sc.Nodes {
		var inner core.Behavior
		if i == 4 {
			inner = mutator{}
		}
		n.Behavior = guarded{inner: inner, g: g}
	}
	sess.sc.Run()
	if len(g.broken) == 0 {
		t.Fatal("the guard missed a receiver mutating shared packets")
	}
}
