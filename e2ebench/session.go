package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"time"

	"sbr6"
	"sbr6/internal/daemon"
	"sbr6/internal/radio"
)

// Session workload shape: 150 static nodes, 4 seeded single-link flows,
// 500 windows of 100 ms. Each window injects a node, ejects the node injected churnLag
// windows earlier and advances one window; every queryEvery windows the
// client also queries. The last settleWindows windows inject nothing, so
// every injected node has had ten DAD timeouts to configure before the
// final barrier.
const (
	sessionN        = 150
	sessionFlows    = 4
	sessionWindows  = 500
	sessionWindow   = 100 * time.Millisecond
	sessionCooldown = 500 * time.Millisecond
	sessionInterval = 250 * time.Millisecond
	churnLag        = 50
	queryEvery      = 10
	settleWindows   = 10
	sessionSetups   = 5
)

func sessionOptions() []sbr6.Option {
	side := densityArea(sessionN)
	return []sbr6.Option{
		sbr6.WithSeed(networkSeed),
		sbr6.WithNodes(sessionN),
		sbr6.WithArea(side, side),
		sbr6.WithPlacement(sbr6.PlaceUniform),
		sbr6.WithSecure(),
		sbr6.WithFastTimers(),
		sbr6.WithBootPolicy(sbr6.BootPerCell),
		sbr6.WithWarmup(time.Second),
		sbr6.WithCooldown(sessionCooldown),
		sbr6.WithWindows(sessionWindow),
	}
}

func sessionSpec(seed int64) (*sbr6.Scenario, error) {
	links, err := sessionLinks()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	flows := make([]sbr6.Flow, sessionFlows)
	for i := range flows {
		l := links[r.Intn(len(links))]
		flows[i] = sbr6.Flow{From: l[0], To: l[1], Interval: sessionInterval, Size: flowSize,
			Start: time.Duration(r.Int63n(int64(sessionInterval)))}
	}
	return sbr6.NewScenario(append(sessionOptions(), sbr6.WithFlows(flows...))...)
}

// linkCache holds the radio links of the fixed session network.
var linkCache [][2]int

// sessionLinks lists the directed radio links between non-anchor nodes of
// the static session network. The session's flows run over single links:
// a multi-hop route would cross nodes the churn injects and ejects, and
// then the rediscoveries that follow, not the program, would set how
// much work a seed costs. Rediscovery under motion is routing's job.
func sessionLinks() ([][2]int, error) {
	if linkCache != nil {
		return linkCache, nil
	}
	spec, err := sbr6.NewScenario(sessionOptions()...)
	if err != nil {
		return nil, err
	}
	sess, err := sbr6.Serve(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	tw, err := newTwin(snap)
	if err != nil {
		return nil, err
	}
	for i := 1; i < sessionN; i++ {
		for _, j := range tw.sc.Medium.Neighbors(radio.NodeID(i)) {
			if j != 0 {
				linkCache = append(linkCache, [2]int{i, int(j)})
			}
		}
	}
	if len(linkCache) == 0 {
		return nil, fmt.Errorf("session network has no links")
	}
	return linkCache, nil
}

// rpcClient is one closed-loop JSON-RPC 2.0 connection to the daemon: it
// writes a request and reads its response before sending the next.
type rpcClient struct {
	nc net.Conn
	r  *bufio.Reader
	id int
}

type rpcRequest struct {
	JSONRPC string `json:"jsonrpc"`
	ID      int    `json:"id"`
	Method  string `json:"method"`
	Params  any    `json:"params,omitempty"`
}

type rpcResponse struct {
	ID     int             `json:"id"`
	Result json.RawMessage `json:"result"`
	Error  *daemon.Error   `json:"error"`
}

// call performs one round trip, decoding the result into out when out is
// non-nil.
func (c *rpcClient) call(method string, params, out any) error {
	c.id++
	b, err := json.Marshal(rpcRequest{JSONRPC: "2.0", ID: c.id, Method: method, Params: params})
	if err != nil {
		return fmt.Errorf("%s: encode: %w", method, err)
	}
	if _, err := c.nc.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("%s: write: %w", method, err)
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("%s: read: %w", method, err)
	}
	var resp rpcResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return fmt.Errorf("%s: decode: %w", method, err)
	}
	if resp.ID != c.id {
		return fmt.Errorf("%s: response id %d, want %d", method, resp.ID, c.id)
	}
	if resp.Error != nil {
		return fmt.Errorf("%s: %w", method, resp.Error)
	}
	if out != nil {
		if err := json.Unmarshal(resp.Result, out); err != nil {
			return fmt.Errorf("%s: decode result: %w", method, err)
		}
	}
	return nil
}

// served is a session hosted by the daemon on an abstract unix socket,
// with one client connected.
type served struct {
	sess   *sbr6.Session
	srv    *daemon.Server
	done   chan error
	client *rpcClient
}

var socketSeq int

func serve(spec *sbr6.Scenario) (*served, error) {
	sess, err := sbr6.Serve(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	socketSeq++
	addr := fmt.Sprintf("@sbr6-e2ebench-%d-%d", os.Getpid(), socketSeq)
	l, err := net.Listen("unix", addr)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{sess: sess, srv: daemon.New(sess), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(l) }()
	nc, err := net.Dial("unix", addr)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("dial: %w", err)
	}
	s.client = &rpcClient{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}
	// One round trip proves the owner goroutine is serving.
	var info daemon.Info
	if err := s.client.call(daemon.MethodInfo, nil, &info); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the daemon down and waits for its owner goroutine to exit;
// afterwards the session may be used in-process again.
func (s *served) stop() error {
	if s.client != nil {
		s.client.nc.Close()
	}
	s.srv.Close()
	return <-s.done
}

// session drives the churn loop over the daemon's control socket, then
// snapshots the session and times sbr6.Resume on the snapshot.
func session(seed int64, tr *tracer, full bool) (outcome, error) {
	var o outcome
	spec, err := sessionSpec(seed)
	if err != nil {
		return o, err
	}
	// Set-up takes tens of milliseconds here, so it is repeated and the
	// median kept; the last session serves the run.
	var s *served
	setups := make([]float64, sessionSetups)
	for i := range setups {
		if s != nil {
			if err := s.stop(); err != nil {
				return o, fmt.Errorf("daemon: %w", err)
			}
		}
		endSpan := tr.begin("sbr6.Serve+daemon")
		t0 := time.Now()
		s, err = serve(spec)
		setups[i] = since(t0)
		endSpan()
		o.ops.record(err)
		if err != nil {
			return o, err
		}
	}
	o.setup = median(setups)
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()
	c := s.client
	rpc := func(method string, params, out any) error {
		endSpan := tr.begin("rpc." + method)
		err := c.call(method, params, out)
		endSpan()
		o.ops.record(err)
		return err
	}
	serveConfigured := s.sess.Configured()

	var infoMS []float64
	if tr != nil {
		// Framing and the owner-goroutine hop alone: the info method
		// touches no simulation state.
		for i := 0; i < 1000; i++ {
			var info daemon.Info
			t := time.Now()
			if err := rpc(daemon.MethodInfo, nil, &info); err != nil {
				return o, err
			}
			infoMS = append(infoMS, since(t)*1e3)
		}
	}

	var injected []int // node index of each inject, in order
	advanceMS := make([]float64, 0, sessionWindows)
	ev0 := s.sess.Node(0).Unwrap().Sim().Processed()
	ph, err := beginPhase(tr)
	if err != nil {
		return o, err
	}
	for w := 0; w < sessionWindows; w++ {
		if w < sessionWindows-settleWindows {
			var r struct{ Index int }
			if err := rpc(daemon.MethodInject, map[string]string{"name": ""}, &r); err != nil {
				return o, err
			}
			injected = append(injected, r.Index)
		}
		if w >= churnLag {
			if err := rpc(daemon.MethodEject, map[string]int{"index": injected[w-churnLag]}, nil); err != nil {
				return o, err
			}
		}
		t := time.Now()
		if err := rpc(daemon.MethodAdvance, map[string]int{"windows": 1}, nil); err != nil {
			return o, err
		}
		advanceMS = append(advanceMS, since(t)*1e3)
		if w%queryEvery == queryEvery-1 {
			var q sbr6.Result
			if err := rpc(daemon.MethodQuery, nil, &q); err != nil {
				return o, err
			}
		}
	}
	wall, st, err := ph.end()
	if err != nil {
		return o, err
	}
	o.run = wall
	var info daemon.Info
	if err := rpc(daemon.MethodInfo, nil, &info); err != nil {
		return o, err
	}
	o.heapKB = liveHeapKB() / float64(info.LiveNodes)

	var snap json.RawMessage
	endSpan := tr.begin("rpc.snapshot")
	t1 := time.Now()
	err = c.call(daemon.MethodSnapshot, nil, &snap)
	snapMS := since(t1) * 1e3
	endSpan()
	o.ops.record(err)
	if err != nil {
		return o, err
	}
	stopped = true
	if err := s.stop(); err != nil {
		return o, fmt.Errorf("daemon: %w", err)
	}
	final := s.sess.Query()

	// Injected nodes count as operations too: one that never configured
	// is a failed join.
	o.ops.add(len(injected), final.Configured-serveConfigured)
	p50, err := percentile(advanceMS, 0.5)
	if err != nil {
		return o, err
	}
	p98, err := percentile(advanceMS, 0.98)
	if err != nil {
		return o, err
	}
	o.extra = map[string]float64{
		"advance_p50_ms":     p50,
		"advance_p98_ms":     p98,
		"pkt_latency_p95_ms": final.LatencyP95 * 1e3,
	}
	tw, err := newTwin(snap)
	if err != nil {
		return o, err
	}
	nodes := sessionNodes(s.sess)
	o.sim = simOut{
		Nodes:       info.LiveNodes,
		Configured:  final.Configured,
		Events:      nodes[0].Sim().Processed(),
		CtrlBytes:   final.ControlBytes,
		FormationVS: lastAddressed(tw.sc.BootOffsets(), nodes[:sessionN]),
		Sent:        final.Sent,
		Delivered:   final.Delivered,
		LatencyP95:  final.LatencyP95,
		Signs:       final.CryptoSign,
		Verifies:    final.CryptoVerify,
		OKFrac:      o.ops.okFrac(),
	}
	if o.ops.failed != 0 {
		return o, fmt.Errorf("%w: %d of %d session operations failed", errIncorrect, o.ops.failed, o.ops.attempted)
	}
	if !full {
		return o, nil
	}
	checkStart := time.Now()

	endSpan = tr.begin("sbr6.Resume")
	t2 := time.Now()
	resumed, err := sbr6.Resume(snap)
	o.extra["resume_s"] = since(t2)
	endSpan()
	o.ops.record(err)
	if err != nil {
		return o, fmt.Errorf("resume: %w", err)
	}
	if got := resumed.Query(); !reflect.DeepEqual(got, final) {
		return o, fmt.Errorf("%w: resumed session's query differs from the original's: %v vs %v", errIncorrect, got, final)
	}
	// The twin replays the journal in-process: it must reach the served
	// session's digest, and once the flow sources leave and the cooldown
	// drains, every pooled frame must be back (pool.live_end == 0).
	lay := map[string]float64{}
	if err := tw.replaySession(injected, lay); err != nil {
		return o, err
	}
	if lay["pool.live_end"] != 0 {
		return o, fmt.Errorf("%w: %v pooled frames outstanding after the sources left", errIncorrect, lay["pool.live_end"])
	}
	if tr != nil {
		o.layers = lay
		lay["sim.events"] = float64(o.sim.Events)
		lay["sbr6.snapshot_ms"] = snapMS
		lay["sbr6.snapshot_kb"] = float64(len(snap)) / 1024
		lay["sbr6.resume_events"] = float64(resumed.Node(0).Unwrap().Sim().Processed())
		lay["daemon.info_p50_ms"] = median(infoMS)
		phaseLayers(wall, o.sim.Events-ev0, st, lay)
		nodeLayers(nodes, sessionFlows, lay)
		if lay["identity.keygen_s"], err = keygenSeconds(tw.sc.Cfg.Protocol.Suite, networkSeed, sessionN); err != nil {
			return o, fmt.Errorf("keygen: %w", err)
		}
	}
	o.checkS = since(checkStart)
	return o, nil
}

// replaySession applies the run's ops to the twin at their original
// barriers, checks the digest, then ejects every flow source and settles.
func (t *twin) replaySession(injected []int, lay map[string]float64) error {
	lay["scenario.build_s"] = t.buildS
	t0 := time.Now()
	t.lv.Start()
	lay["scenario.bootstrap_s"] = since(t0)
	stepMS := make([]float64, 0, sessionWindows)
	for w := 0; w < sessionWindows; w++ {
		if w < len(injected) {
			idx, err := t.lv.Join("", nil)
			if err != nil {
				return fmt.Errorf("twin join: %w", err)
			}
			if idx != injected[w] {
				return fmt.Errorf("%w: twin join got index %d, the daemon's %d", errIncorrect, idx, injected[w])
			}
		}
		if w >= churnLag {
			if err := t.lv.Leave(injected[w-churnLag]); err != nil {
				return fmt.Errorf("twin leave: %w", err)
			}
		}
		t1 := time.Now()
		t.lv.Step()
		stepMS = append(stepMS, since(t1)*1e3)
	}
	lay["scenario.advance_p50_ms"] = median(stepMS)
	if err := t.check(); err != nil {
		return err
	}
	scenarioLayers(t.sc, lay)
	for _, f := range t.sc.Cfg.Flows {
		if t.sc.Nodes[f.From].Dead() {
			continue // one source may feed several flows
		}
		if err := t.lv.Leave(f.From); err != nil {
			return fmt.Errorf("twin leave source %d: %w", f.From, err)
		}
	}
	// The emission lag plus two windows, as the churn conformance suite
	// settles: every frame in flight has landed or been dropped.
	for i := 0; i < int(sessionCooldown/sessionWindow)+3; i++ {
		t.lv.Step()
	}
	lay["pool.live_end"] = float64(t.sc.Medium.PoolStats().Live)
	return nil
}
