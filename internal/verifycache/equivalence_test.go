package verifycache_test

// Cross-configuration differential suite: the verification memo must be a
// pure memoization. For every scenario in the matrix, every seed and every
// shard count, runs with the memo off, on and paranoid must produce
// byte-for-byte identical Results — same deliveries, same route choices,
// same rejection counters, same crypto.verify accounting — while the
// memos' own stats prove the primitive operation count actually dropped.
// The paranoid arm recomputes every served verdict (chain hits included)
// and panics on disagreement, so a poisoned memo cannot pass silently.
// The matrix deliberately includes adversaries (black holes forging cached
// replies, RERR spammers, a fake DNS, a gray hole) so that "every attack
// detected without the memo is detected with it" is checked on full runs,
// not just unit fixtures. Every sharded count must also match every other:
// region-local memos leave the sharded engine's results unchanged.
//
// This mirrors internal/radio/equivalence_test.go, which plays the same
// role for the spatial-grid medium.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/scenario"
	"sbr6/internal/verifycache"
)

func fastTimers(cfg *scenario.Config) {
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.DiscoveryTimeout = 500 * time.Millisecond
	cfg.Protocol.AckTimeout = 400 * time.Millisecond
	cfg.Protocol.ResolveTimeout = 2 * time.Second
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.BootStagger = 300 * time.Millisecond
	cfg.Warmup = time.Second
	cfg.Cooldown = 2 * time.Second
}

// equivalenceMatrix mirrors the repository's example scenarios — a clean
// static quickstart network, the static battlefield insider attack, and an
// adversarial mobile network under loss — plus a mobile network whose
// bidirectional flows make distinct endpoints verify route chains sharing
// the same hop bindings, which gives the memos genuine cross-node traffic.
func equivalenceMatrix() map[string]func() scenario.Config {
	return map[string]func() scenario.Config{
		"quickstart": func() scenario.Config {
			cfg := scenario.DefaultConfig()
			fastTimers(&cfg)
			cfg.N = 25
			cfg.Placement = scenario.PlaceGrid
			cfg.Duration = 8 * time.Second
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 24, Interval: 500 * time.Millisecond, Size: 64},
				{From: 7, To: 18, Interval: 700 * time.Millisecond, Size: 48},
			}
			return cfg
		},
		"battlefield": func() scenario.Config {
			cfg := scenario.DefaultConfig()
			fastTimers(&cfg)
			cfg.N = 25
			cfg.Placement = scenario.PlaceGrid
			cfg.Duration = 10 * time.Second
			cfg.Radio.LossRate = 0.02
			cfg.WindowSize = 2 * time.Second
			cfg.Behaviors = map[int]core.Behavior{
				11: &attack.BlackHole{},
				12: &attack.BlackHole{ForgeCacheReplies: true},
				13: &attack.RERRSpammer{},
			}
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 24, Interval: 500 * time.Millisecond, Size: 64},
				{From: 4, To: 20, Interval: 500 * time.Millisecond, Size: 64},
				{From: 21, To: 3, Interval: 500 * time.Millisecond, Size: 64},
			}
			return cfg
		},
		"adversarial": func() scenario.Config {
			cfg := scenario.DefaultConfig()
			fastTimers(&cfg)
			cfg.N = 30
			cfg.Placement = scenario.PlaceUniform
			cfg.Area.W, cfg.Area.H = 1200, 1200
			cfg.Duration = 10 * time.Second
			cfg.Radio.LossRate = 0.05
			cfg.Mobility = scenario.MobilitySpec{
				Waypoint: true, MinSpeed: 1, MaxSpeed: 10, Pause: time.Second,
			}
			cfg.Names = map[int]string{5: "server"}
			cfg.Behaviors = map[int]core.Behavior{
				2: &attack.FakeDNS{},
				9: &attack.GrayHole{P: 0.5},
			}
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 14, Interval: 500 * time.Millisecond, Size: 64},
				{From: 8, To: 22, Interval: 600 * time.Millisecond, Size: 64},
			}
			return cfg
		},
		"mobile": func() scenario.Config {
			cfg := scenario.DefaultConfig()
			cfg.N = 25
			cfg.Area = geom.Rect{W: 700, H: 700}
			fastTimers(&cfg)
			cfg.Duration = 8 * time.Second
			cfg.Radio.LossRate = 0.05
			cfg.Mobility = scenario.MobilitySpec{
				Waypoint: true, Walk: true,
				MinSpeed: 1, MaxSpeed: 8,
				Pause: time.Second, Epoch: 2 * time.Second,
			}
			cfg.Behaviors = map[int]core.Behavior{
				14: &attack.BlackHole{ForgeCacheReplies: true},
			}
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 23, Interval: 500 * time.Millisecond, Size: 64},
				{From: 23, To: 1, Interval: 500 * time.Millisecond, Size: 64},
				{From: 4, To: 19, Interval: 600 * time.Millisecond, Size: 32},
				{From: 19, To: 4, Interval: 600 * time.Millisecond, Size: 32},
				{From: 7, To: 18, Interval: 700 * time.Millisecond, Size: 48},
				{From: 18, To: 7, Interval: 700 * time.Millisecond, Size: 48},
			}
			return cfg
		},
	}
}

// memoMode is one arm of the differential: the memo off, on, or on with
// every hit recomputed.
type memoMode int

const (
	memoOff memoMode = iota
	memoOn
	memoParanoid
)

func (m memoMode) String() string { return [...]string{"off", "on", "paranoid"}[m] }

// run is one finished arm: its Result plus the memo traffic summed over
// the nodes and over the memos.
type run struct {
	res          *scenario.Result
	nodes, memos verifycache.Stats
}

// runWith builds and runs one freshly constructed configuration. The
// config MUST be built fresh per run: attacker behaviors are stateful
// instances, so reusing one config across arms would smuggle attack state
// between them.
func runWith(t *testing.T, mk func() scenario.Config, seed int64, shards int, mode memoMode) run {
	t.Helper()
	cfg := mk()
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Protocol.VerifyCache = 0 // default-on
	if mode == memoOff {
		cfg.Protocol.VerifyCache = -1
	}
	cfg.Protocol.VerifyParanoia = mode == memoParanoid
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (memo %s, shards %d, seed %d): %v", mode, shards, seed, err)
	}
	r := run{res: sc.Run(), memos: sc.MemoStats()}
	for _, n := range sc.Nodes {
		r.nodes.Add(n.VerifyCacheStats())
	}
	return r
}

// detectionCounters are the per-run signals that an attack was noticed
// and neutralized; the differential suite requires them untouched by the
// memo and checks the attack scenarios actually exercise some of them
// (so the equality is not vacuous).
var detectionCounters = []string{
	"rreq.rejected", "rrep.rejected", "crep.rejected", "rerr.rejected",
	"dns.answer_rejected", "dad.arep_rejected", "dad.drep_rejected",
	"rerr.spammer_flagged", "probe.concluded", "credit.punished",
}

func TestVerifyCacheEquivalentToDirect(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	levels := []int{0, 2, 4}
	if testing.Short() {
		seeds, levels = seeds[:2], levels[:2] // keep the -race CI lap affordable
	}
	var totalHits, totalLogical, totalPrimitive, shardedHits uint64
	detections := map[string]float64{}
	for name, mk := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				var sharded *scenario.Result // every shard count >= 1 must agree
				for _, shards := range levels {
					base := runWith(t, mk, seed, shards, memoOff)
					if base.nodes != (verifycache.Stats{}) || base.memos != (verifycache.Stats{}) {
						t.Fatalf("seed %d shards %d: memo-off run recorded memo traffic: %+v / %+v",
							seed, shards, base.nodes, base.memos)
					}
					if shards > 0 {
						if sharded == nil {
							sharded = base.res
						} else if !reflect.DeepEqual(sharded, base.res) {
							t.Errorf("seed %d: shards=%d diverged from shards=%d:\nwant: %v\ngot:  %v",
								seed, shards, levels[1], sharded, base.res)
						}
					}
					for _, mode := range []memoMode{memoOn, memoParanoid} {
						got := runWith(t, mk, seed, shards, mode)
						where := fmt.Sprintf("seed %d shards %d memo %s", seed, shards, mode)
						if !reflect.DeepEqual(base.res, got.res) {
							t.Errorf("%s: diverged from the memo-off run:\noff: %v\ngot: %v", where, base.res, got.res)
						}
						if got.nodes != got.memos {
							t.Errorf("%s: node stats sum to %+v, the memos to %+v", where, got.nodes, got.memos)
						}
						if mode != memoOn {
							continue
						}
						for _, c := range detectionCounters {
							if d, g := base.res.Metrics.Get(c), got.res.Metrics.Get(c); d != g {
								t.Errorf("%s: detection counter %q: off %v, on %v", where, c, d, g)
							} else {
								detections[c] += g
							}
						}
						totalHits += got.memos.Hits()
						totalLogical += uint64(got.res.CryptoVerify)
						totalPrimitive += got.memos.SigMisses
						if shards > 0 {
							shardedHits += got.memos.Hits()
						}
					}
				}
			}
		})
	}

	// The equality above must not be vacuous: the memos must have actually
	// absorbed work, and the adversarial scenarios must have produced
	// detections. Every signature verification flows through the memo, so
	// primitives-with-memo = SigMisses and primitives-without = the logical
	// crypto.verify count.
	if totalHits == 0 || shardedHits == 0 {
		t.Fatalf("memos recorded %d hits, %d of them sharded; the memo arms are vacuous", totalHits, shardedHits)
	}
	if totalPrimitive >= totalLogical {
		t.Fatalf("crypto op count did not drop: %d primitive vs %d logical verifications",
			totalPrimitive, totalLogical)
	}
	var detected float64
	for _, c := range []string{"crep.rejected", "rerr.spammer_flagged", "dns.answer_rejected", "probe.concluded"} {
		detected += detections[c]
	}
	if detected == 0 {
		t.Fatal("attack matrix produced no detections; equality check is vacuous")
	}
}
