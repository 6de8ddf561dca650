package main

import (
	"math/rand"
	"time"

	"sbr6/internal/core"
	"sbr6/internal/identity"
	"sbr6/internal/pool"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/verifycache"
)

// The counters below are read through public accessors of the program's
// packages; nothing here reaches into unexported state.

// nodeCounters sums the named per-node protocol counters over nodes.
func nodeCounters(nodes []*core.Node, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range nodes {
		m := n.Metrics()
		for _, name := range names {
			out[name] += m.Get(name)
		}
	}
	return out
}

// Protocol counter names the layer metrics read.
const (
	ctrCtrlBytes   = "tx.bytes.control"
	ctrAREQRx      = "rx.AREQ"
	ctrDADRounds   = "dad.rounds"
	ctrSign        = "crypto.sign"
	ctrVerify      = "crypto.verify"
	ctrDiscoveries = "discovery.attempts"
	ctrRERRSent    = "rerr.sent"
)

var layerCounterNames = []string{ctrCtrlBytes, ctrAREQRx, ctrDADRounds, ctrSign, ctrVerify, ctrDiscoveries, ctrRERRSent}

// verifyCacheHitRatio sums every node's memo statistics.
func verifyCacheHitRatio(nodes []*core.Node) float64 {
	var st verifycache.Stats
	for _, n := range nodes {
		st.Add(n.VerifyCacheStats())
	}
	return ratio(float64(st.Hits()), float64(st.Hits()+st.Misses()))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scenarioLayers reads the layer counters a built scenario exposes: link
// statistics, frame pools and binding tables summed over every region
// under sharding, plus the per-region event split.
func scenarioLayers(sc *scenario.Scenario, lay map[string]float64) {
	var link radio.Stats
	var pools []pool.Stats
	regionEvents := []float64{}
	if eng := sc.Engine(); eng != nil {
		link = eng.Stats()
		seen := map[int]bool{}
		for i := range sc.Nodes {
			id := radio.NodeID(i)
			r := eng.RegionOf(id)
			if seen[r] {
				continue
			}
			seen[r] = true
			pools = append(pools, eng.NodeMedium(id).PoolStats())
			regionEvents = append(regionEvents, float64(eng.NodeSim(id).Processed()))
		}
		lay["shard.global_events"] = float64(eng.Global.Processed())
	} else {
		link = sc.Medium.Stats()
		pools = append(pools, sc.Medium.PoolStats())
		regionEvents = append(regionEvents, float64(sc.S.Processed()))
	}
	lay["radio.tx_frames"] = float64(link.TxFrames)
	lay["radio.rx_per_tx"] = ratio(float64(link.RxFrames), float64(link.TxFrames))
	lay["radio.unicast_fails"] = float64(link.UnicastFails)
	lay["radio.retries"] = float64(link.Retries)
	for _, p := range pools {
		lay["pool.high_water"] += float64(p.HighWater)
		lay["pool.live_end"] += float64(p.Live)
	}
	var maxEv, sumEv float64
	for _, e := range regionEvents {
		sumEv += e
		if e > maxEv {
			maxEv = e
		}
	}
	lay["shard.region_imbalance"] = ratio(maxEv, sumEv/float64(len(regionEvents)))
	bs := sc.BindStats()
	lay["bindtable.hit_ratio"] = ratio(float64(bs.Hits), float64(bs.Hits+bs.Misses))
	lay["bindtable.primitive_verifies"] = float64(bs.Misses)
}

// nodeLayers fills the layer metrics every workload reads from its nodes.
func nodeLayers(nodes []*core.Node, flows int, lay map[string]float64) {
	c := nodeCounters(nodes, layerCounterNames...)
	lay["ndp.areq_rx"] = c[ctrAREQRx]
	lay["ndp.dad_rounds"] = c[ctrDADRounds]
	lay["identity.signs"] = c[ctrSign]
	lay["identity.verifies"] = c[ctrVerify]
	lay["dsr.discoveries"] = c[ctrDiscoveries]
	lay["dsr.discoveries_per_flow"] = ratio(c[ctrDiscoveries], float64(flows))
	lay["dsr.rerr_sent"] = c[ctrRERRSent]
	lay["verifycache.hit_ratio"] = verifyCacheHitRatio(nodes)
}

// phaseLayers converts a traced phase's statistics into layer metrics.
func phaseLayers(wall float64, events uint64, st phaseStats, lay map[string]float64) {
	lay["sim.ns_per_event"] = ratio(wall*1e9, float64(events))
	lay["sim.allocs_per_event"] = ratio(float64(st.mallocs), float64(events))
	lay["runtime.gc_cpu_frac"] = st.gcFrac
	lay["runtime.alloc_mb"] = st.allocMB
	lay["shard.parallelism"] = ratio(st.cpuS, wall)
	for _, l := range cpuLayers {
		lay[l+".cpu_share"] = st.cpuShare[l]
	}
}

// keygenSeconds times identity.New over the n per-node key streams the
// scenario.Build derives from seed — the keygen part of set-up.
func keygenSeconds(suite identity.Suite, seed int64, n int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := identity.New(suite, rand.New(rand.NewSource(seed+1000+int64(i))), ""); err != nil {
			return 0, err
		}
	}
	return since(t0), nil
}
