package scenario

import (
	"testing"

	"sbr6/internal/boot"
)

// TestEventsCountsEveryRegion pins Scenario.Events to the work actually
// done at shards {0, 2}. Under sharding S is only the global simulator,
// which sees none of the protocol's events, so S.Processed() undercounts;
// Events must sum the regions, and the two engines, running the same
// formation, must report comparable totals.
func TestEventsCountsEveryRegion(t *testing.T) {
	events := map[int]uint64{}
	for _, shards := range []int{0, 2} {
		cfg := fastCfg(true, 16)
		cfg.Boot = boot.PerCell
		cfg.Shards = shards
		sc, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.Bootstrap(); got != cfg.N {
			t.Fatalf("shards=%d: configured %d of %d", shards, got, cfg.N)
		}
		ev := sc.Events()
		switch eng := sc.Engine(); {
		case eng == nil:
			if ev != sc.S.Processed() {
				t.Fatalf("default engine: Events %d, S.Processed %d", ev, sc.S.Processed())
			}
		default:
			if ev != eng.Events() {
				t.Fatalf("shards=%d: Events %d, engine total %d", shards, ev, eng.Events())
			}
			if ev <= sc.S.Processed() {
				t.Fatalf("shards=%d: Events %d does not exceed the global simulator's %d", shards, ev, sc.S.Processed())
			}
		}
		t.Logf("shards=%d: %d events (global simulator %d)", shards, ev, sc.S.Processed())
		events[shards] = ev
	}
	if lo, hi := events[0]/2, events[0]*2; events[2] < lo || events[2] > hi {
		t.Fatalf("2 regions processed %d events, the default engine %d: not the same formation", events[2], events[0])
	}
}
