package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sbr6"
	"sbr6/internal/core"
	"sbr6/internal/scenario"
)

// Routing workload shape: 200 mobile nodes at the formation density, the
// full secure protocol, 100 seeded CBR flows, 2 s warmup, 8 measured 1 s
// windows and a 2 s cooldown. With this many flows the per-seed work
// rests on many route discoveries, so seeds differ by a few percent.
const (
	routingN        = 200
	routingFlows    = 100
	routingWindows  = 8
	routingWindow   = time.Second
	routingCooldown = 2 * time.Second
	routingInterval = 250 * time.Millisecond
	flowSize        = 512
	routingSetups   = 3
)

// seededFlows draws count CBR flows between distinct non-anchor nodes of
// an n-node network from seed, each starting at a random phase of the
// send interval.
func seededFlows(seed int64, n, count int, interval time.Duration) []sbr6.Flow {
	r := rand.New(rand.NewSource(seed))
	flows := make([]sbr6.Flow, count)
	for i := range flows {
		from := 1 + r.Intn(n-1)
		to := 1 + r.Intn(n-2)
		if to >= from {
			to++
		}
		flows[i] = sbr6.Flow{From: from, To: to, Interval: interval, Size: flowSize,
			Start: time.Duration(r.Int63n(int64(interval)))}
	}
	return flows
}

// densityArea returns the side of the square holding n nodes at the
// scale sweep's density (about 12 neighbours at the 250 m default range).
func densityArea(n int) float64 { return 125 * math.Sqrt(float64(n)) }

// networkSeed fixes the placement, keys and motion of the routing and
// session networks, so the workload seed varies only the traffic and the
// spread between seeds measures the program, not the luck of a
// topology.
const networkSeed = 1

func routingSpec(seed int64) (*sbr6.Scenario, error) {
	side := densityArea(routingN)
	return sbr6.NewScenario(
		sbr6.WithSeed(networkSeed),
		sbr6.WithNodes(routingN),
		sbr6.WithArea(side, side),
		sbr6.WithPlacement(sbr6.PlaceUniform),
		sbr6.WithMobility(sbr6.Mobility{MinSpeed: 1, MaxSpeed: 5}),
		sbr6.WithSecure(),
		sbr6.WithFastTimers(),
		sbr6.WithBootPolicy(sbr6.BootPerCell),
		sbr6.WithFlows(seededFlows(seed, routingN, routingFlows, routingInterval)...),
		sbr6.WithWarmup(2*time.Second),
		sbr6.WithDuration(routingWindows*routingWindow),
		sbr6.WithCooldown(routingCooldown),
		sbr6.WithWindows(routingWindow),
	)
}

// sessionNodes unwraps a session's node handles.
func sessionNodes(sess *sbr6.Session) []*core.Node {
	nodes := make([]*core.Node, sess.NodeCount())
	for i := range nodes {
		nodes[i] = sess.Node(i).Unwrap()
	}
	return nodes
}

// twin is a session's snapshot rebuilt in-process on the scenario
// package, where the medium, pools and binding tables are reachable. It
// replays the public run's ops and must land on the same state digest.
type twin struct {
	sc     *scenario.Scenario
	lv     *scenario.Live
	digest string  // the public session's digest at the snapshot barrier
	buildS float64 // host seconds of scenario.Build
}

func newTwin(snap []byte) (*twin, error) {
	var f struct {
		Config scenario.Config `json:"config"`
		Digest string          `json:"digest"`
	}
	if err := json.Unmarshal(snap, &f); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	t0 := time.Now()
	sc, err := scenario.Build(f.Config)
	if err != nil {
		return nil, fmt.Errorf("twin build: %w", err)
	}
	buildS := since(t0)
	lv, err := scenario.NewLive(sc)
	if err != nil {
		return nil, fmt.Errorf("twin live: %w", err)
	}
	return &twin{sc: sc, lv: lv, digest: f.Digest, buildS: buildS}, nil
}

// check compares the twin's digest with the public session's.
func (t *twin) check() error {
	d := t.lv.Digest()
	if got := hex.EncodeToString(d[:]); got != t.digest {
		return fmt.Errorf("%w: in-process replay digest %.16s differs from the served session's %.16s", errIncorrect, got, t.digest)
	}
	return nil
}

// lastAddressed is the simulated instant the last of the first n nodes
// finished DAD: its boot offset plus its DAD latency.
func lastAddressed(offsets []time.Duration, nodes []*core.Node) float64 {
	var last time.Duration
	for i, off := range offsets {
		if at := off + nodes[i].DADLatency(); at > last {
			last = at
		}
	}
	return last.Seconds()
}

// routing serves the mobile network, then times the measured windows of
// routed CBR traffic: Advance one window at a time until window
// routingWindows-1 has been finalized, a cooldown after it closed.
func routing(seed int64, tr *tracer, _ bool) (outcome, error) {
	var o outcome
	spec, err := routingSpec(seed)
	if err != nil {
		return o, err
	}
	// Serve takes about a tenth of a second, so it is repeated and the
	// median kept; the last session carries the run.
	var sess *sbr6.Session
	setups := make([]float64, routingSetups)
	for i := range setups {
		endSpan := tr.begin("sbr6.Serve")
		t0 := time.Now()
		sess, err = sbr6.Serve(spec)
		setups[i] = since(t0)
		endSpan()
		o.ops.record(err)
		if err != nil {
			return o, fmt.Errorf("serve: %w", err)
		}
	}
	o.setup = median(setups)
	defer sess.Close()
	var reports []sbr6.WindowReport
	o.ops.record(sess.Stream(func(w sbr6.WindowReport) { reports = append(reports, w) }))
	sim := sess.Node(0).Unwrap().Sim()
	tr.setCounters(func() map[string]float64 { return map[string]float64{"sim.events": float64(sim.Processed())} })

	ev0 := sim.Processed()
	ph, err := beginPhase(tr)
	if err != nil {
		return o, err
	}
	steps := 0
	for len(reports) < routingWindows {
		endSpan := tr.begin("sbr6.Session.Advance")
		err := sess.Advance(1)
		endSpan()
		o.ops.record(err)
		if err != nil {
			return o, fmt.Errorf("advance: %w", err)
		}
		steps++
	}
	wall, st, err := ph.end()
	if err != nil {
		return o, err
	}
	o.run = wall
	o.heapKB = liveHeapKB() / float64(sess.LiveNodes())

	endSpan := tr.begin("sbr6.Session.Query")
	q := sess.Query()
	endSpan()
	var sent, delivered int
	for i, w := range reports[:routingWindows] {
		if w.Index != i {
			return o, fmt.Errorf("%w: window report %d carries index %d", errIncorrect, i, w.Index)
		}
		sent += w.Sent
		delivered += w.Delivered
	}
	if sent == 0 || delivered == 0 {
		return o, fmt.Errorf("%w: measured windows sent %d and delivered %d packets", errIncorrect, sent, delivered)
	}
	endSpan = tr.begin("sbr6.Session.Snapshot")
	t1 := time.Now()
	snap, err := sess.Snapshot()
	snapMS := since(t1) * 1e3
	endSpan()
	o.ops.record(err)
	if err != nil {
		return o, fmt.Errorf("snapshot: %w", err)
	}
	tw, err := newTwin(snap)
	if err != nil {
		return o, err
	}
	nodes := sessionNodes(sess)
	o.sim = simOut{
		Nodes:       sess.LiveNodes(),
		Configured:  sess.Configured(),
		Events:      sim.Processed(),
		CtrlBytes:   q.ControlBytes,
		FormationVS: lastAddressed(tw.sc.BootOffsets(), nodes),
		Sent:        sent,
		Delivered:   delivered,
		LatencyP95:  q.LatencyP95,
		Signs:       q.CryptoSign,
		Verifies:    q.CryptoVerify,
		OKFrac:      float64(delivered) / float64(sent),
	}
	o.extra = map[string]float64{"pkt_latency_p95_ms": q.LatencyP95 * 1e3}

	if tr != nil {
		o.layers = map[string]float64{
			"sim.events":       float64(o.sim.Events),
			"sbr6.snapshot_ms": snapMS,
			"sbr6.snapshot_kb": float64(len(snap)) / 1024,
		}
		phaseLayers(wall, sim.Processed()-ev0, st, o.layers)
		nodeLayers(nodes, routingFlows, o.layers)
		if err := tw.replayRouting(steps, o.layers); err != nil {
			return o, err
		}
		if o.layers["identity.keygen_s"], err = keygenSeconds(tw.sc.Cfg.Protocol.Suite, networkSeed, routingN); err != nil {
			return o, fmt.Errorf("keygen: %w", err)
		}
	}
	return o, nil
}

// replayRouting re-runs the routing session in-process for the layer
// counters the public facade does not expose, timing the scenario
// layer's own Start and Step.
func (t *twin) replayRouting(steps int, lay map[string]float64) error {
	lay["scenario.build_s"] = t.buildS
	t0 := time.Now()
	t.lv.Start()
	lay["scenario.bootstrap_s"] = since(t0)
	stepMS := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		t1 := time.Now()
		t.lv.Step()
		stepMS = append(stepMS, since(t1)*1e3)
	}
	lay["scenario.advance_p50_ms"] = median(stepMS)
	if err := t.check(); err != nil {
		return err
	}
	scenarioLayers(t.sc, lay)
	return nil
}
