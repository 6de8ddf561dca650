// Package core implements the paper's contribution: a MANET node stack that
// bootstraps securely (CGA address autoconfiguration with extended DAD and
// 6DNAR registration, Section 3.1), offers secure DNS services (Section
// 3.2), discovers routes with per-hop identity attestations derived from
// DSR (Section 3.3), and maintains routes with signed RERRs, credit
// management and black-hole probing (Section 3.4).
//
// The same Node runs the insecure DSR baseline when Config.Secure is false:
// signature fields stay empty and no verification happens, which is exactly
// the comparison surface the attack experiments measure.
package core

import (
	"hash/fnv"
	"math/rand"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/credit"
	"sbr6/internal/dnssrv"
	"sbr6/internal/dsr"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
	"sbr6/internal/verifycache"
	"sbr6/internal/wire"
)

// Config selects protocol variant and timing.
type Config struct {
	// Secure enables the paper's protocol; false runs plain DSR.
	Secure bool
	// UseCredits enables the credit mechanism of Section 3.4.
	UseCredits bool
	// UseCache lets intermediates answer RREQs with CREPs and sources
	// reuse cached routes.
	UseCache bool
	// ProbeOnLoss enables black-hole probing after repeated silent losses.
	ProbeOnLoss bool
	// Salvage lets a relay that hits a broken link re-route in-flight data
	// over its own cached route (DSR packet salvaging) instead of just
	// reporting the error.
	Salvage bool
	// MaxSalvage bounds how often one packet may be salvaged.
	MaxSalvage uint8

	// VerifyCache bounds the verification memo (internal/verifycache)
	// the scenario builds for each event loop — one per simulation, or
	// one per region under the sharded core — and attaches to every node
	// on it: CGA bindings, signature checks and whole route-record chains
	// are memoized under content digests and shared across those nodes.
	// 0 selects verifycache.DefaultEntries (the memo is on by default); a
	// negative value disables memoization entirely. Runs with and without
	// the memo produce byte-for-byte identical results — it only avoids
	// recomputing pure checks whose full input was seen before.
	VerifyCache int
	// VerifyParanoia makes every memo hit recompute its check and panic
	// on disagreement — the poisoned arm of the differential suite,
	// never on in production runs.
	VerifyParanoia bool
	// FloodCache bounds each per-node duplicate-flood suppression set
	// (AREQ, RREQ and DNS-control floods). 0 selects 4096 entries —
	// enough below ~1000 nodes; the scenario harness scales it with the
	// network so 10k-node DAD floods are deduplicated instead of being
	// re-processed when the seen-set thrashes.
	FloodCache int

	// Audit configures the post-formation address audit sweep
	// (internal/audit): periodic signed re-advertisement of the CGA
	// binding with deterministic conflict resolution. The zero value
	// disables it — no events, no randomness, byte-identical runs.
	Audit audit.Config

	Suite  identity.Suite
	DAD    ndp.Config
	Credit credit.Config

	RouteTTL         time.Duration // cache entry lifetime
	DiscoveryTimeout time.Duration // per-attempt RREQ wait
	DiscoveryRetries int
	AckTimeout       time.Duration // end-to-end ack wait before counting a loss
	ResolveTimeout   time.Duration // DNS query wait
	TTL              uint8         // flood / forwarding hop limit

	// LossStreak is how many consecutive unacknowledged packets to one
	// destination trigger a probe of the route.
	LossStreak int
	// RERRWindow and RERRThreshold flag a host reporting more than
	// RERRThreshold route errors within RERRWindow as a suspected spammer.
	RERRWindow    time.Duration
	RERRThreshold int
}

// DefaultConfig returns the secure protocol with every defense enabled.
func DefaultConfig() Config {
	return Config{
		Secure:           true,
		UseCredits:       true,
		UseCache:         true,
		ProbeOnLoss:      true,
		Salvage:          true,
		MaxSalvage:       1,
		Suite:            identity.SuiteEd25519,
		DAD:              ndp.DefaultConfig(),
		Credit:           credit.DefaultConfig(),
		RouteTTL:         30 * time.Second,
		DiscoveryTimeout: 2 * time.Second,
		DiscoveryRetries: 2,
		AckTimeout:       1500 * time.Millisecond,
		ResolveTimeout:   4 * time.Second,
		TTL:              32,
		LossStreak:       2,
		RERRWindow:       30 * time.Second,
		RERRThreshold:    4,
	}
}

// BaselineConfig returns plain DSR with no defenses, the comparison point.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.Secure = false
	cfg.UseCredits = false
	cfg.ProbeOnLoss = false
	return cfg
}

// Behavior lets the attack package hook a node's pipeline. A nil Behavior
// is an honest node.
type Behavior interface {
	// Intercept sees every received packet before normal processing and
	// may consume it by returning true. pkt is the transmission's shared
	// decode (see Node.Deliver): every receiver of the same frame gets the
	// same *wire.Packet, so Intercept must treat it — header, message and
	// every slice they reference — as read-only. To send a variant, copy
	// first (fwd := *pkt), as the relay paths do. raw is borrowed for the
	// duration of the call, like radio.Handler's payload.
	Intercept(n *Node, pkt *wire.Packet, raw []byte) bool
	// DropForward reports whether to silently drop a unicast this node was
	// asked to relay (the black-hole primitive).
	DropForward(n *Node, pkt *wire.Packet) bool
}

// Node is one MANET host.
type Node struct {
	sim    *sim.Simulator
	medium *radio.Medium
	link   radio.NodeID
	ident  *identity.Identity
	dnsPub identity.PublicKey
	cfg    Config
	rng    *rand.Rand
	met    *trace.Metrics
	ctr    hotCounters // met's per-frame counters, resolved on first use

	dns *dnssrv.Server // non-nil only on the DNS node

	// enc amortizes the codec's scratch state across this node's
	// transmissions (see wire.Encoder); single-threaded like the node.
	enc wire.Encoder

	autoconf   *ndp.Initiator
	configured bool
	dead       bool // Shutdown ran: every entry point and transmit path is inert

	// neighbors is the neighbour cache: a transmitter's IP (Tag 0) to its
	// link, learned from every received frame.
	neighbors ndp.AddrTable[radio.NodeID]

	// Flood seen-sets, inline so a duplicate flood costs no pointer chase.
	areqSeen  ndp.FloodCache
	rreqSeen  ndp.FloodCache
	dnsFloods ndp.FloodCache // content-hash dedup for flood-routed DNS control
	auditSeen ndp.FloodCache // audit re-advertisement flood dedup

	// Audit sweep state: the current sweep round and the challenge the
	// in-flight advertisement carries (0 = none outstanding).
	auditSeq uint32
	auditCh  uint64
	// auditRebind, when non-nil, carries a registered name (and the proof
	// material of the abandoned binding) across an audit rekey's DAD
	// re-run: the name is restored and re-bound through the signed update
	// protocol once the fresh address survives its objection window.
	auditRebind *pendingRebind

	// vc routes every CGA-binding, signature and chain check through the
	// event loop's shared memo (a View without a memo computes directly).
	vc verifycache.View

	routes  *dsr.Cache
	credits *credit.Table
	rreqSeq uint32

	pending     map[ipv6.Addr]*discovery
	outstanding map[ackKey]*sentData
	lossStreak  map[ipv6.Addr]int
	probes      map[ipv6.Addr]*probeState
	rerrTimes   map[ipv6.Addr][]sim.Time

	resolves map[string]*resolveState
	rebind   *rebindState
	// aliases maps an anycast address (the DNS discovery addresses) to the
	// real, CGA-verifiable address learned from the RREP that answered a
	// discovery for the alias.
	aliases map[ipv6.Addr]ipv6.Addr

	nextFlow uint32
	dataSeq  uint32

	// Behavior, when non-nil, makes the node adversarial.
	Behavior Behavior
	// OnData is invoked for every application payload delivered to this
	// node as the final destination.
	OnData func(src ipv6.Addr, d *wire.Data)
	// OnConfigured is invoked once secure DAD completes.
	OnConfigured func()
}

type ackKey struct {
	flow uint32
	seq  uint32
}

type sentData struct {
	dst    ipv6.Addr
	relays []ipv6.Addr
	timer  *sim.Timer

	// probe links a probe packet back to the probe that sent it, so its
	// acknowledgement marks exactly that probe's target as answered.
	// Resolving the probe through the flow id instead would be ambiguous:
	// probe flow ids can repeat across probes, and picking a winner by
	// iterating the probes map made runs nondeterministic.
	probe    *probeState
	probeIdx int
}

type discovery struct {
	seq     uint32
	retries int
	timer   *sim.Timer
	waiters []func(route dsr.Route, ok bool)
}

type probeState struct {
	relays []ipv6.Addr
	acked  []bool
}

type resolveState struct {
	ch    uint64
	timer *sim.Timer
	cb    func(ipv6.Addr, bool)
}

type rebindState struct {
	oldIP ipv6.Addr
	oldRn uint64
	ch    uint64
	// pre marks a rebind whose address change already happened (the audit
	// rekey path): the old binding above was recorded up front and the
	// challenge step must NOT regenerate again.
	pre     bool
	chTaken bool
	timer   *sim.Timer
	cb      func(ok bool)
}

// pendingRebind is a name registration waiting out an audit rekey's DAD
// re-run, plus the abandoned binding the update proof needs.
type pendingRebind struct {
	name  string
	oldIP ipv6.Addr
	oldRn uint64
}

// New creates a node. The caller attaches it to the medium (the scenario
// owns positions): medium.AddNode(link, track.Position, node).
func New(s *sim.Simulator, medium *radio.Medium, link radio.NodeID, ident *identity.Identity,
	dnsPub identity.PublicKey, cfg Config, rng *rand.Rand, met *trace.Metrics) *Node {
	if met == nil {
		met = trace.NewMetrics()
	}
	if cfg.TTL == 0 {
		cfg.TTL = 32
	}
	floodCap := cfg.FloodCache
	if floodCap <= 0 {
		floodCap = 4096
	}
	n := &Node{
		sim: s, medium: medium, link: link, ident: ident, dnsPub: dnsPub,
		cfg: cfg, rng: rng, met: met,
		routes:      dsr.NewCache(ident.Addr, sim.Duration(cfg.RouteTTL), 3),
		credits:     credit.New(cfg.Credit),
		pending:     make(map[ipv6.Addr]*discovery),
		outstanding: make(map[ackKey]*sentData),
		lossStreak:  make(map[ipv6.Addr]int),
		probes:      make(map[ipv6.Addr]*probeState),
		rerrTimes:   make(map[ipv6.Addr][]sim.Time),
		resolves:    make(map[string]*resolveState),
		aliases:     make(map[ipv6.Addr]ipv6.Addr),
	}
	for _, f := range []*ndp.FloodCache{&n.areqSeen, &n.rreqSeen, &n.dnsFloods, &n.auditSeen} {
		f.Init(floodCap)
	}
	n.autoconf = ndp.NewInitiator(s, rng, ident, dnsPub, cfg.DAD)
	n.autoconf.Verify = &n.vc
	n.autoconf.SendAREQ = n.sendAREQ
	n.autoconf.OnConfigured = n.dadDone
	n.autoconf.Rename = func(old string) string { return old + "-r" }
	return n
}

// AttachDNS makes this node the MANET's DNS server; it then also owns the
// well-known anycast address ipv6.DNS1. The server's CGA and signature
// checks route through this node's memo View so their cost lands in the
// same Stats as every other check the node performs.
func (n *Node) AttachDNS(srv *dnssrv.Server) {
	n.dns = srv
	srv.Verifier = &n.vc
}

// SetMemo attaches the verification memo of the node's event loop. The
// scenario calls it once per node right after construction; a node
// without one (or given nil) computes every check directly.
func (n *Node) SetMemo(m *verifycache.Memo) { n.vc = m.View() }

// Accessors used by scenarios, examples and the attack package.

// Addr returns the node's current (possibly tentative) address.
func (n *Node) Addr() ipv6.Addr { return n.ident.Addr }

// Name returns the node's domain name ("" when none).
func (n *Node) Name() string { return n.ident.Name }

// Identity exposes the node's cryptographic identity.
func (n *Node) Identity() *identity.Identity { return n.ident }

// Configured reports whether secure DAD has completed.
func (n *Node) Configured() bool { return n.configured }

// Metrics returns the node's counters.
func (n *Node) Metrics() *trace.Metrics { return n.met }

// Credits returns the node's credit table.
func (n *Node) Credits() *credit.Table { return n.credits }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Sim returns the simulator driving the node.
func (n *Node) Sim() *sim.Simulator { return n.sim }

// Rand returns the node's random source.
func (n *Node) Rand() *rand.Rand { return n.rng }

// DNS returns the attached DNS server, or nil.
func (n *Node) DNS() *dnssrv.Server { return n.dns }

// LinkID returns the node's radio identifier.
func (n *Node) LinkID() radio.NodeID { return n.link }

// RouteTo reports the relays of the best cached route to dst.
func (n *Node) RouteTo(dst ipv6.Addr) ([]ipv6.Addr, bool) {
	r, ok := n.routes.Best(dst, n.sim.Now(), n.routeScore())
	if !ok {
		return nil, false
	}
	return r.Relays, true
}

// Start begins the node's life: secure duplicate address detection, then —
// once configured — normal operation.
func (n *Node) Start() {
	if n.dead {
		return
	}
	n.autoconf.Start()
}

// Shutdown removes the node from the simulation for good: every pending
// timer it armed is cancelled (releasing the captured closures), DAD is
// stopped, and a dead flag makes every entry point — radio delivery,
// application sends, resolves, audit advertisements — and every transmit
// path inert, so callbacks still referenced by in-flight events (a
// unicast ACK outcome, an untracked probe conclusion) fire harmlessly.
// The caller detaches the node from the medium afterwards
// (radio.Medium.RemoveNode); under the sharded engine both happen at a
// barrier while the owning region is quiescent. Shutdown is idempotent
// and there is no restart: a returning host joins as a fresh identity,
// exactly like the paper's model of departure.
func (n *Node) Shutdown() {
	if n.dead {
		return
	}
	n.dead = true
	n.configured = false
	n.autoconf.Stop()
	//sbr6:commutative Timer.Cancel removal order cannot reorder surviving events: the heap pops by the total (at, owner, seq) key
	for _, d := range n.pending {
		if d.timer != nil {
			d.timer.Cancel()
		}
	}
	//sbr6:commutative Timer.Cancel removal order cannot reorder surviving events: the heap pops by the total (at, owner, seq) key
	for _, sd := range n.outstanding {
		if sd.timer != nil {
			sd.timer.Cancel()
		}
	}
	//sbr6:commutative Timer.Cancel removal order cannot reorder surviving events: the heap pops by the total (at, owner, seq) key
	for _, st := range n.resolves {
		if st.timer != nil {
			st.timer.Cancel()
		}
	}
	if n.rebind != nil {
		if n.rebind.timer != nil {
			n.rebind.timer.Cancel()
		}
		n.rebind = nil
	}
	// Drop per-peer state so the only thing a departed node pins is its
	// metrics sink (merged into the scenario's graveyard by the caller).
	// Untracked events that survive (finishProbe) look their state up by
	// key and no-op on the emptied maps.
	n.neighbors = ndp.AddrTable[radio.NodeID]{}
	n.pending = make(map[ipv6.Addr]*discovery)
	n.outstanding = make(map[ackKey]*sentData)
	n.lossStreak = make(map[ipv6.Addr]int)
	n.probes = make(map[ipv6.Addr]*probeState)
	n.rerrTimes = make(map[ipv6.Addr][]sim.Time)
	n.resolves = make(map[string]*resolveState)
	n.aliases = make(map[ipv6.Addr]ipv6.Addr)
	n.auditRebind = nil
}

// Dead reports whether Shutdown has run.
func (n *Node) Dead() bool { return n.dead }

// StartConfigured skips DAD (scripted experiments that pre-assign
// identities use this).
func (n *Node) StartConfigured() {
	n.configured = true
	n.routes.SetOwner(n.ident.Addr)
}

// DADState exposes the autoconfiguration state for tests and reports.
func (n *Node) DADState() ndp.State { return n.autoconf.State() }

// DADLatency reports how long DAD took once configured.
func (n *Node) DADLatency() time.Duration { return n.autoconf.Duration }

func (n *Node) dadDone() {
	n.configured = true
	n.routes.SetOwner(n.ident.Addr)
	n.met.Observe("dad.latency_s", n.autoconf.Duration.Seconds())
	if r := n.auditRebind; r != nil {
		// The audit rekey parked this registration: the fresh address
		// stands, so restore the name and move its DNS binding over through
		// the signed update protocol, proving ownership of both CGAs.
		n.auditRebind = nil
		n.ident.Name = r.name
		n.rebindNameFrom(r.oldIP, r.oldRn)
	}
	if n.OnConfigured != nil {
		n.OnConfigured()
	}
}

func (n *Node) ownsAddr(a ipv6.Addr) bool {
	if a == n.ident.Addr {
		return true
	}
	return n.dns != nil && (a == ipv6.DNS1 || a == ipv6.DNS2 || a == ipv6.DNS3)
}

// ownAddrForDiscovery maps an alias the node answers for to its real
// address (RREPs must carry the CGA-verifiable address).
func (n *Node) sign(msg []byte) []byte {
	n.met.Add1("crypto.sign")
	return n.ident.Sign(msg)
}

// verify counts one logical signature verification and performs it through
// the memo. The counter tracks verification *requests*, not primitive
// operations, so memoized and direct runs stay byte-for-byte identical;
// the memo's own Stats record how many primitives were avoided.
func (n *Node) verify(pk identity.PublicKey, msg, sig []byte) bool {
	n.met.Add1("crypto.verify")
	return n.vc.VerifySig(pk, msg, sig)
}

// verifyCGA checks the CGA binding addr == H(pk, rn) through the memo.
// CGA checks are not counted under crypto.verify (they never were: the
// counter follows the paper's signature-operation accounting).
func (n *Node) verifyCGA(addr ipv6.Addr, pk []byte, rn uint64) bool {
	return n.vc.VerifyCGA(addr, pk, rn)
}

// VerifyCacheStats exposes this node's own lookups on the shared memo
// (zero when memoization is off), so summing over nodes gives the memos'
// totals. The benchmarks and the differential suite use it to prove the
// primitive-operation count actually drops.
func (n *Node) VerifyCacheStats() verifycache.Stats { return n.vc.Stats() }

// VerifyRouteRecord runs the Section 3.3 route-record verification on m,
// exactly as the destination and CREP-serving intermediates do. Exported
// for the scale benchmarks and property tests.
func (n *Node) VerifyRouteRecord(m *wire.RREQ) error { return n.verifySRR(m) }

// --- Receive path ---

// Deliver implements radio.Handler. The frame is decoded once per
// transmission: the first receiver stores its wire.Decode result (packet
// or error) in the medium's parse slot, and every later receiver of the
// same transmission reuses it. The shared *wire.Packet is read-only for
// all of them — the dispatch paths and Behavior.Intercept never write
// through it, and every relay builds its own packet from a copy — which is
// what keeps decode-once byte-identical to decoding per receiver.
func (n *Node) Deliver(from radio.NodeID, payload []byte, parse *any) {
	if n.dead {
		return
	}
	pkt, err := decodeShared(payload, parse)
	if err != nil {
		n.met.Add1("rx.malformed")
		return
	}
	n.hot(&n.ctr.rxFrames, "rx.frames").Add1()
	if prev, ok := transmitterIP(pkt); ok {
		n.neighbors.Put(ndp.AddrKey{Addr: prev}, from)
	}
	if n.Behavior != nil && n.Behavior.Intercept(n, pkt, payload) {
		return
	}
	n.dispatch(pkt, payload)
}

// decodeShared decodes payload through the transmission's parse slot:
// the slot's packet or error when an earlier receiver decoded the frame,
// otherwise a fresh decode, stored for the receivers after this one. A nil
// slot (a frame with no sharing receivers) decodes directly.
func decodeShared(payload []byte, parse *any) (*wire.Packet, error) {
	if parse == nil {
		return wire.Decode(payload)
	}
	switch v := (*parse).(type) {
	case *wire.Packet:
		return v, nil
	case error:
		return nil, v
	}
	pkt, err := wire.Decode(payload)
	if err != nil {
		*parse = err
	} else {
		*parse = pkt
	}
	return pkt, err
}

func (n *Node) dispatch(pkt *wire.Packet, raw []byte) {
	// Flood-routed DNS control (warn-AREPs before routes exist).
	if pkt.Dst == ipv6.DNS1 && len(pkt.SrcRoute) == 0 {
		n.handleDNSFlood(pkt, raw)
		return
	}
	switch m := pkt.Msg.(type) {
	case *wire.AREQ:
		n.handleAREQ(pkt, m)
	case *wire.RREQ:
		n.handleRREQ(pkt, m)
	case *wire.AuditAdv:
		n.handleAuditAdv(pkt, m)
	default:
		n.handleSourceRouted(pkt)
	}
}

// transmitterIP infers the link-layer transmitter's IP address from the
// packet, standing in for NDP link-layer address resolution: flooded
// requests name the transmitter as the last route-record entry (or the
// origin), source-routed packets as the hop before the current index.
func transmitterIP(pkt *wire.Packet) (ipv6.Addr, bool) {
	switch m := pkt.Msg.(type) {
	case *wire.AREQ:
		if len(m.RR) > 0 {
			return m.RR[len(m.RR)-1], true
		}
		return pkt.Src, true
	case *wire.AuditAdv:
		if len(m.RR) > 0 {
			return m.RR[len(m.RR)-1], true
		}
		return pkt.Src, true
	case *wire.RREQ:
		if len(m.SRR) > 0 {
			return m.SRR[len(m.SRR)-1].IP, true
		}
		return pkt.Src, true
	default:
		if pkt.Hop == 0 {
			return pkt.Src, true
		}
		if int(pkt.Hop) <= len(pkt.SrcRoute) {
			return pkt.SrcRoute[pkt.Hop-1], true
		}
		return ipv6.Addr{}, false
	}
}

// handleSourceRouted processes unicast packets: relay when this node is the
// current hop, consume when it is the destination.
func (n *Node) handleSourceRouted(pkt *wire.Packet) {
	if int(pkt.Hop) < len(pkt.SrcRoute) {
		if pkt.SrcRoute[pkt.Hop] == n.ident.Addr {
			n.forwardUnicast(pkt)
		}
		return
	}
	if n.ownsAddr(pkt.Dst) {
		n.consume(pkt)
	}
}

func (n *Node) consume(pkt *wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *wire.AREP:
		n.handleAREP(pkt, m)
	case *wire.DREP:
		n.handleDREP(pkt, m)
	case *wire.AuditObj:
		n.handleAuditObj(pkt, m)
	case *wire.RREP:
		n.handleRREP(pkt, m)
	case *wire.CREP:
		n.handleCREP(pkt, m)
	case *wire.RERR:
		n.handleRERR(pkt, m)
	case *wire.Data:
		n.handleData(pkt, m)
	case *wire.Ack:
		n.handleAck(pkt, m)
	case *wire.DNSQuery:
		n.handleDNSQuery(pkt, m)
	case *wire.DNSAnswer:
		n.handleDNSAnswer(pkt, m)
	case *wire.UpdateReq:
		n.handleUpdateReq(pkt, m)
	case *wire.UpdateChal:
		n.handleUpdateChal(pkt, m)
	case *wire.Update:
		n.handleUpdate(pkt, m)
	case *wire.UpdateResult:
		n.handleUpdateResult(pkt, m)
	default:
		n.met.Add1("rx.unhandled")
	}
}

// --- Transmit primitives ---

func (n *Node) account(pkt *wire.Packet, size int) {
	t := pkt.Msg.Type()
	n.hot(&n.ctr.tx[t], txName(t)).Add1()
	switch pkt.Msg.(type) {
	case *wire.Data:
		n.hot(&n.ctr.txData, "tx.bytes.data").Inc(float64(size))
	default:
		n.hot(&n.ctr.txControl, "tx.bytes.control").Inc(float64(size))
	}
	n.hot(&n.ctr.txTotal, "tx.bytes.total").Inc(float64(size))
}

// encodeFrame serializes pkt into a frame checked out of the medium's
// pool — sized exactly via the counting EncodedSize, so the append never
// grows the buffer — and accounts the transmitted bytes. The caller owns
// the returned frame and must hand it to BroadcastFrame/UnicastFrame or
// return it with ReleaseFrame on every non-transmitting path.
func (n *Node) encodeFrame(pkt *wire.Packet) []byte {
	raw := n.enc.AppendEncode(n.medium.Frame(n.enc.Size(pkt)), pkt)
	n.account(pkt, len(raw))
	return raw
}

// broadcastPacket encodes and broadcasts a packet frame.
func (n *Node) broadcastPacket(pkt *wire.Packet) {
	if n.dead {
		return
	}
	n.medium.BroadcastFrame(n.link, n.encodeFrame(pkt))
}

// RawBroadcast transmits pre-encoded bytes unmodified; the replay attacker
// uses it to retransmit captured frames. The bytes count toward
// tx.bytes.total like any other transmission and are additionally broken
// out as tx.bytes.raw, preserving the accounting invariant
// total == control + data + raw. The frame stays caller-owned (attackers
// replay the same capture repeatedly), so it is never pooled.
func (n *Node) RawBroadcast(raw []byte) {
	if n.dead {
		return
	}
	n.hot(&n.ctr.txTotal, "tx.bytes.total").Inc(float64(len(raw)))
	n.met.Inc("tx.bytes.raw", float64(len(raw)))
	n.met.Add1("tx.raw")
	n.medium.Broadcast(n.link, raw)
}

// Flood broadcasts msg network-wide from this node.
func (n *Node) Flood(msg wire.Message, ttl uint8) {
	n.broadcastPacket(&wire.Packet{Src: n.ident.Addr, Dst: ipv6.AllNodes, TTL: ttl, Msg: msg})
}

// SendAlong source-routes msg to dst via the given relays.
func (n *Node) SendAlong(relays []ipv6.Addr, dst ipv6.Addr, msg wire.Message) {
	pkt := &wire.Packet{Src: n.ident.Addr, Dst: dst, TTL: n.cfg.TTL, SrcRoute: relays, Msg: msg}
	n.sendSourceRouted(pkt, nil)
}

// lastHopBroadcast reports whether the final hop toward dst must be
// broadcast because the destination may not hold a usable address yet
// (the paper's footnote on AREP delivery; DREPs share the constraint).
// Audit objections share it for a different reason: the destination address
// is by definition held by two nodes, so a neighbour-table unicast could
// deliver the objection to the objector's own side of the conflict.
func lastHopBroadcast(msg wire.Message) bool {
	switch msg.(type) {
	case *wire.AREP, *wire.DREP, *wire.AuditObj:
		return true
	default:
		return false
	}
}

// sendSourceRouted transmits pkt toward its next hop. onFail, if non-nil,
// is invoked with the next-hop address when the link-layer reports no
// delivery (out of range, down, lost) or when the neighbour cannot be
// resolved.
func (n *Node) sendSourceRouted(pkt *wire.Packet, onFail func(next ipv6.Addr)) {
	if n.dead {
		// An in-flight ACK-outcome callback may still route here after
		// Shutdown; the node no longer has a radio port to transmit from.
		return
	}
	next, ok := pkt.NextHop()
	if !ok {
		n.met.Add1("tx.route_exhausted")
		return
	}
	raw := n.encodeFrame(pkt)
	if next == pkt.Dst && lastHopBroadcast(pkt.Msg) {
		n.medium.BroadcastFrame(n.link, raw)
		return
	}
	nid, known := n.neighbors.Get(ndp.AddrKey{Addr: next})
	if !known {
		n.met.Add1("tx.no_neighbor")
		n.medium.ReleaseFrame(raw) // encoded but never transmitted
		if onFail != nil {
			onFail(next)
		}
		return
	}
	n.medium.UnicastFrame(n.link, nid, raw, func(acked bool) {
		if !acked && onFail != nil {
			onFail(next)
		}
	})
}

// maxFloodRecord caps hop-accumulated route records with headroom under
// the codec's 255-hop route limit.
const maxFloodRecord = 250

// relayFlood rebroadcasts a flooded request with this node appended to its
// route record — the shared relay step of AREQ and audit-advertisement
// floods. rr is the incoming record; rebuild wraps the extended record
// back into the concrete message. Unconfigured nodes cannot appear in a
// route record and stay silent.
func (n *Node) relayFlood(pkt *wire.Packet, rr []ipv6.Addr, rebuild func(rr []ipv6.Addr) wire.Message) {
	if !n.configured || pkt.TTL <= 1 || len(rr) >= maxFloodRecord {
		return
	}
	ext := append(append([]ipv6.Addr(nil), rr...), n.ident.Addr)
	n.broadcastPacket(&wire.Packet{Src: pkt.Src, Dst: ipv6.AllNodes, TTL: pkt.TTL - 1, Msg: rebuild(ext)})
}

// reverse returns a reversed copy of a route record.
func reverse(rr []ipv6.Addr) []ipv6.Addr {
	out := make([]ipv6.Addr, len(rr))
	for i, a := range rr {
		out[len(rr)-1-i] = a
	}
	return out
}

// contentKey hashes raw frame bytes for flood dedup of unsequenced control.
func contentKey(raw []byte) uint32 {
	h := fnv.New32a()
	h.Write(raw)
	return h.Sum32()
}
