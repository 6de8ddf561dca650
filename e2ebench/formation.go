package main

import (
	"fmt"
	"math"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/boot"
	"sbr6/internal/geom"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/scalebench"
	"sbr6/internal/scenario"
)

// formationN is the node count of both formation workloads: the 10k cell
// the receive-pipeline work in the roadmap targets.
const formationN = 10000

// formationConfig is the configuration scalebench.BuildFormation builds,
// with the region count exposed so the sharded workload runs the same
// network. TestFormationConfigMirrorsScalebench pins the two together.
func formationConfig(n int, seed int64, shards int) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Protocol.Audit = audit.Config{}
	cfg.Radio.Index = radio.IndexAuto
	cfg.Seed = seed
	cfg.N = n
	side := 125 * math.Sqrt(float64(n))
	cfg.Area = geom.Rect{W: side, H: side}
	cfg.Placement = scenario.PlaceUniform
	cfg.Boot = boot.PerCell
	cfg.BootStagger = 500 * time.Millisecond
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.TTL = scalebench.FormationTTL
	cfg.Flows = nil
	cfg.Shards = shards
	return cfg
}

// formation runs secure DAD formation of formationN nodes: set-up is
// scenario.Build (placement and keygen), the timed phase Bootstrap.
// shards 0 is the default engine built by scalebench.BuildFormation.
func formation(shards int) repFunc {
	return func(seed int64, tr *tracer, _ bool) (outcome, error) {
		var o outcome
		endSpan := tr.begin("scenario.Build")
		t0 := time.Now()
		var sc *scenario.Scenario
		if shards == 0 {
			sc = scalebench.BuildFormation(formationN, boot.PerCell, seed)
		} else {
			var err error
			if sc, err = scenario.Build(formationConfig(formationN, seed, shards)); err != nil {
				return o, fmt.Errorf("build: %w", err)
			}
		}
		o.setup = since(t0)
		endSpan()
		events := func() uint64 {
			if eng := sc.Engine(); eng != nil {
				return eng.Events()
			}
			return sc.S.Processed()
		}
		tr.setCounters(func() map[string]float64 { return map[string]float64{"sim.events": float64(events())} })

		ev0 := events()
		ph, err := beginPhase(tr)
		if err != nil {
			return o, err
		}
		endSpan = tr.begin("scenario.Bootstrap")
		configured := sc.Bootstrap()
		endSpan()
		wall, st, err := ph.end()
		if err != nil {
			return o, err
		}
		o.run = wall
		o.heapKB = liveHeapKB() / float64(len(sc.Nodes))

		o.ops.add(len(sc.Nodes), configured)
		seen := make(map[ipv6.Addr]bool, len(sc.Nodes))
		for _, n := range sc.Nodes {
			seen[n.Addr()] = true
		}
		if configured != len(sc.Nodes) {
			return o, fmt.Errorf("%w: %d of %d nodes configured", errIncorrect, configured, len(sc.Nodes))
		}
		if len(seen) != len(sc.Nodes) {
			return o, fmt.Errorf("%w: %d distinct addresses among %d nodes", errIncorrect, len(seen), len(sc.Nodes))
		}
		o.sim = simOut{
			Nodes:       len(sc.Nodes),
			Configured:  configured,
			Events:      events(),
			CtrlBytes:   nodeCounters(sc.Nodes, ctrCtrlBytes)[ctrCtrlBytes],
			FormationVS: lastAddressed(sc.BootOffsets(), sc.Nodes),
		}
		o.sim.OKFrac = o.ops.okFrac()

		if tr != nil {
			o.layers = map[string]float64{
				"sim.events":           float64(o.sim.Events),
				"scenario.build_s":     o.setup,
				"scenario.bootstrap_s": o.run,
			}
			phaseLayers(wall, o.sim.Events-ev0, st, o.layers)
			scenarioLayers(sc, o.layers)
			nodeLayers(sc.Nodes, 0, o.layers)
			if o.layers["identity.keygen_s"], err = keygenSeconds(sc.Cfg.Protocol.Suite, seed, len(sc.Nodes)); err != nil {
				return o, fmt.Errorf("keygen: %w", err)
			}
		}
		return o, nil
	}
}
