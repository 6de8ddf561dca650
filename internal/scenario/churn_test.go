package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sbr6/internal/identity"
	"sbr6/internal/radio"
	"sbr6/internal/verifycache"
	"sbr6/internal/wire"
)

// settle steps enough windows that every packet in flight when the last
// op was applied has either landed or been dropped and every finalized
// window has been emitted: the emission lag plus two windows of margin.
func settle(lv *Live) {
	for i := 0; i < lv.lag+2; i++ {
		lv.Step()
	}
}

// churnWave joins n nodes, lets them participate for one window, then
// ejects them all and settles; it returns the indexes that joined.
func churnWave(t *testing.T, lv *Live, n int) []int {
	t.Helper()
	return churnWaveProbed(t, lv, n, nil)
}

// churnWaveProbed is churnWave with probe wrapped around every departure:
// probe is handed the joiner's index and must call leave itself.
func churnWaveProbed(t *testing.T, lv *Live, n int, probe func(idx int, leave func())) []int {
	t.Helper()
	joined := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx, err := lv.Join("", nil)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		joined = append(joined, idx)
	}
	lv.Step()
	for _, idx := range joined {
		leave := func() {
			if err := lv.Leave(idx); err != nil {
				t.Fatalf("Leave(%d): %v", idx, err)
			}
		}
		if probe == nil {
			leave()
		} else {
			probe(idx, leave)
		}
	}
	settle(lv)
	return joined
}

// TestChurnNoResidualState is the lifecycle conformance core: after a
// join/leave wave settles, a departed node must leave nothing behind —
// the radio grid drops its port, the verification memo forgets its
// binding, and the event queue returns to the steady-state population.
// Repeated waves must land on exactly the same numbers, or some structure
// is leaking one entry per churned node.
func TestChurnNoResidualState(t *testing.T) {
	lv := startLive(t, liveConfig(11, 0))
	sc := lv.sc

	// First wave establishes the steady-state fingerprint; the sim is
	// deterministic, so later identically-shaped waves must reproduce it.
	churnWave(t, lv, 5)
	wantLive := sc.Medium.Live()
	wantPending := sc.S.Pending()
	if wantLive != 16 {
		t.Fatalf("grid occupancy %d after first wave, want the 16 built nodes", wantLive)
	}

	// Just before each departure the joiner's binding is made resident (a
	// node on the same event loop verifies it); just after, the memo must
	// no longer hold it — so every departure checks that Leave forgets it.
	if sc.memo == nil {
		t.Fatal("the scenario runs without a verification memo; the binding check would be vacuous")
	}
	forgets := func(idx int, leave func()) {
		id := sc.Nodes[idx].Identity()
		probe := sc.memo.View()
		if !probe.VerifyCGA(id.Addr, id.Pub.Bytes(), id.Rn) {
			t.Fatalf("node %d: its own binding does not verify", idx)
		}
		leave()
		if sc.memo.Forget(id.Addr, id.Pub.Bytes(), id.Rn) {
			t.Errorf("node %d: departed binding still memoized", idx)
		}
	}
	for wave := 2; wave <= 4; wave++ {
		joined := churnWaveProbed(t, lv, 5, forgets)
		if got := sc.Medium.Live(); got != wantLive {
			t.Errorf("wave %d: grid occupancy %d, want %d — departed ports leaked", wave, got, wantLive)
		}
		if got := sc.S.Pending(); got != wantPending {
			t.Errorf("wave %d: %d pending events, want %d — departed timers leaked", wave, got, wantPending)
		}
		for _, idx := range joined {
			if !sc.Nodes[idx].Dead() {
				t.Errorf("wave %d: node %d not marked dead after Leave", wave, idx)
			}
		}
	}
	if got := lv.LiveNodes(); got != 16 {
		t.Errorf("LiveNodes = %d after all waves, want 16", got)
	}
}

// TestChurnPoolDrains ejects both flow sources and settles: with no
// senders left and the cooldown elapsed, every pooled frame buffer must
// be back in the pool — Live outstanding count exactly zero.
func TestChurnPoolDrains(t *testing.T) {
	lv := startLive(t, liveConfig(13, 0))
	sc := lv.sc
	lv.Step()
	for _, src := range []int{1, 3} {
		if err := lv.Leave(src); err != nil {
			t.Fatalf("Leave(%d): %v", src, err)
		}
	}
	settle(lv)
	if st := sc.Medium.PoolStats(); st.Live != 0 {
		t.Errorf("pool holds %d outstanding buffers after the sources left and the cooldown drained: %+v", st.Live, st)
	}
}

// TestChurnMonotoneCounters streams windows through a join/leave storm
// and asserts every per-window counter delta is non-negative: the
// graveyard must bank a departing node's cumulative counters so merged
// totals never step backwards when a node leaves mid-window.
func TestChurnMonotoneCounters(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lv := startLive(t, liveConfig(17, shards))
			violations := 0
			lv.OnWindow = func(w WindowReport) {
				for name, v := range w.Counters { //sbr6:allow maprange counter deltas are only checked for sign, order-independent
					if v < 0 {
						violations++
						t.Errorf("window %d: counter %q went backwards by %g", w.Index, name, -v)
					}
				}
				if w.Live <= 0 {
					t.Errorf("window %d reports %d live nodes", w.Index, w.Live)
				}
			}
			var joined []int
			for round := 0; round < 3; round++ {
				for i := 0; i < 3; i++ {
					idx, err := lv.Join("", nil)
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					joined = append(joined, idx)
				}
				lv.Step()
				for _, idx := range joined {
					if err := lv.Leave(idx); err != nil {
						t.Fatalf("Leave(%d): %v", idx, err)
					}
				}
				joined = joined[:0]
				lv.Step()
			}
			settle(lv)
			if violations > 0 {
				t.Fatalf("%d counter deltas went negative during the churn storm", violations)
			}
		})
	}
}

// TestChurnHeapSteady drives cumulative join churn and asserts the
// process heap reaches a steady state: once the first waves have paid
// for lazily-grown structures, later waves must not keep growing the
// live heap, or per-node residue is accumulating. The full acceptance
// run covers 50k cumulative joins; -short scales down.
func TestChurnHeapSteady(t *testing.T) {
	// Small waves keep the instantaneous network bounded (DAD floods
	// scale with the live population) while the joins accumulate.
	waves, perWave := 625, 80 // 50k cumulative joins
	if testing.Short() {
		waves, perWave = 6, 25
	}
	lv := startLive(t, liveConfig(19, 0))

	heapAfter := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var baseline uint64
	warmupWaves := waves / 5
	for wave := 0; wave < waves; wave++ {
		churnWave(t, lv, perWave)
		if wave == warmupWaves {
			baseline = heapAfter()
		}
	}
	final := heapAfter()

	// Index slots, the op journal and window aggregates grow O(joins) by
	// design but are tiny; allow a modest absolute allowance over the
	// post-warmup baseline and fail on anything resembling per-node
	// protocol state (routes, bindings, timers) being retained.
	joins := uint64((waves - warmupWaves - 1) * perWave)
	allowance := uint64(4<<20) + joins*2048
	if final > baseline+allowance {
		t.Fatalf("heap grew from %d to %d over %d churned joins (allowance %d): per-node state is leaking",
			baseline, final, joins, allowance)
	}
}

// The memo's accounting is per node and per event loop at once: summing
// every node's own lookups — departed nodes included — must give exactly
// the region memos' totals, serial and sharded, so the per-node sum the
// benchmarks report stays truthful under churn.
func TestMemoAccountingSumsOverNodes(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Bidirectional flows make distinct endpoints verify chains
			// over the same relays, which is what the memo shares.
			cfg := liveConfig(5, shards)
			cfg.Flows = append(cfg.Flows,
				Flow{From: 2, To: 1, Interval: 250 * time.Millisecond, Size: 64},
				Flow{From: 4, To: 3, Interval: 400 * time.Millisecond, Size: 32},
				Flow{From: 5, To: 12, Interval: 300 * time.Millisecond, Size: 32},
				Flow{From: 12, To: 5, Interval: 300 * time.Millisecond, Size: 32})
			lv := startLive(t, cfg)
			churnWave(t, lv, 4)
			for i := 0; i < 3; i++ {
				lv.Step()
			}
			// A joiner checks through its region's memo: a chain a
			// build-time node of the same region verified is a hit for it.
			idx, err := lv.Join("", nil)
			if err != nil {
				t.Fatal(err)
			}
			joiner := lv.sc.Nodes[idx]
			peer := lv.sc.Nodes[1]
			for i := 1; shards > 0 && i < idx; i++ {
				if lv.sc.eng.RegionOf(radio.NodeID(i)) == lv.sc.eng.RegionOf(radio.NodeID(idx)) {
					peer = lv.sc.Nodes[i]
					break
				}
			}
			chain := signedChain(lv.sc.Nodes[2].Identity(), lv.sc.Nodes[3].Identity(), 77)
			if err := peer.VerifyRouteRecord(chain); err != nil {
				t.Fatal(err)
			}
			if err := joiner.VerifyRouteRecord(chain); err != nil {
				t.Fatal(err)
			}
			if got := joiner.VerifyCacheStats(); got != (verifycache.Stats{ChainHits: 1}) {
				t.Fatalf("joiner's first chain check = %+v, want one hit on the region memo", got)
			}
			var nodes verifycache.Stats
			for _, n := range lv.sc.Nodes {
				nodes.Add(n.VerifyCacheStats())
			}
			memos := lv.sc.MemoStats()
			if nodes != memos {
				t.Fatalf("nodes sum to %+v, memos to %+v", nodes, memos)
			}
			if memos.Hits() == 0 || memos.Misses() == 0 {
				t.Fatalf("memo traffic %+v; the comparison is vacuous", memos)
			}
			if bs := lv.sc.BindStats(); bs.Hits != memos.CGAHits || bs.Misses != memos.CGAMisses {
				t.Fatalf("BindStats %+v is not the CGA share of %+v", bs, memos)
			}
		})
	}
}

// signedChain is an honest one-hop route record from src through hop.
func signedChain(src, hop *identity.Identity, seq uint32) *wire.RREQ {
	return &wire.RREQ{
		SIP: src.Addr, DIP: hop.Addr, Seq: seq,
		SrcSig: src.Sign(wire.SigRREQSource(src.Addr, seq)),
		SPK:    src.Pub.Bytes(), Srn: src.Rn,
		SRR: []wire.HopAttestation{{
			IP: hop.Addr, PK: hop.Pub.Bytes(), Rn: hop.Rn,
			Sig: hop.Sign(wire.SigHop(hop.Addr, seq)),
		}},
	}
}
