package bindtable_test

// Cross-configuration differential suite for the binding share of the
// verification memo (internal/verifycache). This directory holds no
// code: the shared binding table that once lived here is now the CGA
// half of the per-event-loop memo, and these tests keep its contract
// pinned. For every scenario in the matrix and every seed, runs with the
// memo on, off and paranoid must produce byte-for-byte identical Results
// — same deliveries, same rejections, same crypto.verify accounting —
// while the memo's binding stats (Scenario.BindStats, the surface the
// benchmark reads) prove that CGA checks were served from it and that
// every node's binding lookups are accounted for. The paranoid arm
// recomputes every served verdict and panics on disagreement, so a
// poisoned memo cannot pass this suite silently.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/scenario"
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

// equivalenceMatrix mirrors the repository's example scenarios: a clean
// quickstart network, the battlefield insider attack, and an adversarial
// mobile network under loss.
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
	}
}

// tableMode is one arm of the differential: the memo off, on, or on with
// every hit recomputed.
type tableMode int

const (
	tableOff tableMode = iota
	tableOn
	tableParanoid
)

func (m tableMode) String() string {
	return [...]string{"off", "on", "paranoid"}[m]
}

func (m tableMode) apply(cfg *scenario.Config) {
	cfg.Protocol.VerifyCache = 0 // default-on
	if m == tableOff {
		cfg.Protocol.VerifyCache = -1
	}
	cfg.Protocol.VerifyParanoia = m == tableParanoid
}

// runWith builds and runs one freshly constructed configuration under
// the given mode, returning the result, the run's binding stats, and the
// sum of the nodes' own CGA lookups on the memo. The config MUST be built
// fresh per run: attacker behaviors are stateful instances, so reusing
// one config across arms would smuggle attack state between them.
func runWith(t *testing.T, mk func() scenario.Config, seed int64, shards int, mode tableMode) (*scenario.Result, scenario.BindingStats, uint64) {
	t.Helper()
	cfg := mk()
	cfg.Seed = seed
	cfg.Shards = shards
	mode.apply(&cfg)
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (memo %s, seed %d): %v", mode, cfg.Seed, err)
	}
	res := sc.Run()
	var lookups uint64
	for _, n := range sc.Nodes {
		st := n.VerifyCacheStats()
		lookups += st.CGAHits + st.CGAMisses
	}
	return res, sc.BindStats(), lookups
}

// detectionCounters are the per-run signals that an attack was noticed
// and neutralized; the differential suite requires them untouched by the
// memo and checks the attack scenarios actually exercise some of them.
var detectionCounters = []string{
	"rreq.rejected", "rrep.rejected", "crep.rejected", "rerr.rejected",
	"dns.answer_rejected", "dad.arep_rejected", "dad.drep_rejected",
	"rerr.spammer_flagged", "probe.concluded", "credit.punished",
}

func TestBindTableEquivalentToDirect(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2] // keep the -race CI lap affordable
	}
	var totalHits, totalPrimitive uint64
	detections := map[string]float64{}
	for name, mk := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				off, offStats, offLookups := runWith(t, mk, seed, 0, tableOff)
				on, onStats, onLookups := runWith(t, mk, seed, 0, tableOn)
				paranoid, _, _ := runWith(t, mk, seed, 0, tableParanoid)
				if offStats != (scenario.BindingStats{}) || offLookups != 0 {
					t.Fatalf("seed %d: memo-off run recorded binding traffic: %+v, %d node lookups", seed, offStats, offLookups)
				}
				if !reflect.DeepEqual(off, on) {
					t.Errorf("seed %d: memo on/off runs diverged:\noff: %v\non:  %v", seed, off, on)
				}
				if !reflect.DeepEqual(off, paranoid) {
					t.Errorf("seed %d: paranoid run diverged:\noff:      %v\nparanoid: %v", seed, off, paranoid)
				}
				// Every binding check a node makes is one memo lookup, served
				// or computed, and nothing else reaches the memo's CGA counters.
				if consults := onStats.Hits + onStats.Misses; consults != onLookups {
					t.Errorf("seed %d: memo binding consultations %d != node lookups %d", seed, consults, onLookups)
				}
				for _, c := range detectionCounters {
					d, g := off.Metrics.Get(c), on.Metrics.Get(c)
					if d != g {
						t.Errorf("seed %d: detection counter %q: off %v, on %v", seed, c, d, g)
					}
					detections[c] += g
				}
				totalHits += onStats.Hits
				totalPrimitive += onStats.Misses
			}
		})
	}

	// The equality above must not be vacuous: the memo must have actually
	// served binding checks (primitives = Misses, fewer than the checks
	// made), and the adversarial scenarios must have produced detections.
	if totalHits == 0 || totalPrimitive == 0 {
		t.Fatalf("memo served %d binding checks and computed %d; the on arm is vacuous", totalHits, totalPrimitive)
	}
	var detected float64
	for _, c := range []string{"crep.rejected", "rerr.spammer_flagged", "dns.answer_rejected", "probe.concluded"} {
		detected += detections[c]
	}
	if detected == 0 {
		t.Fatal("attack matrix produced no detections; equality check is vacuous")
	}
}

// The sharded differential: per-region memos must leave Results
// byte-identical to the serial baseline at every shard count, in every
// memo mode — the region-ownership argument, executed. Bidirectional
// flows make distinct endpoint nodes verify route chains sharing the
// same hop bindings (CGA bindings are seq-independent, so both
// directions and every re-discovery reuse them), which is what gives
// the region memos genuine cross-node binding traffic to dedup.
func TestBindTableShardDifferential(t *testing.T) {
	mk := func(seed int64) scenario.Config {
		cfg := scenario.DefaultConfig()
		cfg.Seed = seed
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
			{From: 2, To: 22, Interval: 500 * time.Millisecond, Size: 64},
			{From: 22, To: 2, Interval: 500 * time.Millisecond, Size: 64},
			{From: 7, To: 18, Interval: 700 * time.Millisecond, Size: 48},
			{From: 18, To: 7, Interval: 700 * time.Millisecond, Size: 48},
		}
		return cfg
	}
	levels := []int{1, 2, 4, 8}
	if testing.Short() {
		levels = []int{1, 2}
	}
	const seed = 1
	mk0 := func() scenario.Config { return mk(seed) }
	base, _, _ := runWith(t, mk0, seed, 1, tableOff)
	if base.Sent == 0 || base.Delivered == 0 {
		t.Fatalf("baseline sent=%d delivered=%d; the comparison would be vacuous", base.Sent, base.Delivered)
	}
	var shardedHits uint64
	for _, shards := range levels {
		for _, mode := range []tableMode{tableOff, tableOn, tableParanoid} {
			shards, mode := shards, mode
			t.Run(fmt.Sprintf("shards=%d/table=%s", shards, mode), func(t *testing.T) {
				got, stats, lookups := runWith(t, mk0, seed, shards, mode)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("diverged from the serial memo-off baseline:\nbase: %v\ngot:  %v", base, got)
				}
				if consults := stats.Hits + stats.Misses; consults != lookups {
					t.Errorf("region memo binding consultations %d != node lookups %d", consults, lookups)
				}
				if shards > 1 && mode == tableOn {
					shardedHits += stats.Hits
				}
			})
		}
	}
	if !testing.Short() && shardedHits == 0 {
		t.Error("region memos recorded no binding hits at any shard count; the sharded arm is vacuous")
	}
}
