package scalebench

import (
	"strings"
	"testing"
)

// Canned fixtures: a two-commit history measured on wildly different
// hardware (the "new" machine is uniformly ~4x slower), where the grid
// speedup genuinely eroded at 1000 nodes, the crypto speedup held, a
// formation pair is new, and a 250-node radio pair was dropped. An
// absolute-wall comparison would flag every cell on machine speed alone;
// the ratio trend must see through it.
func trendFixtures() (old, new []ScaleResult) {
	old = []ScaleResult{
		{Mode: "radio", Nodes: 1000, Index: "naive", WallMS: 40},
		{Mode: "radio", Nodes: 1000, Index: "grid", WallMS: 8}, // 5.0x
		{Mode: "crypto", Nodes: 1000, Index: "nocache", WallMS: 100},
		{Mode: "crypto", Nodes: 1000, Index: "cache", WallMS: 25}, // 4.0x
		{Mode: "radio", Nodes: 250, Index: "naive", WallMS: 3},
		{Mode: "radio", Nodes: 250, Index: "grid", WallMS: 1}, // dropped below
	}
	new = []ScaleResult{
		{Mode: "radio", Nodes: 1000, Index: "naive", WallMS: 160},
		{Mode: "radio", Nodes: 1000, Index: "grid", WallMS: 64}, // 2.5x: halved
		{Mode: "crypto", Nodes: 1000, Index: "nocache", WallMS: 400},
		{Mode: "crypto", Nodes: 1000, Index: "cache", WallMS: 105},     // 3.8x: noise
		{Mode: "formation", Nodes: 1000, Index: "serial", WallMS: 800}, // new pair
		{Mode: "formation", Nodes: 1000, Index: "percell", WallMS: 200},
	}
	return old, new
}

func TestTrendComparesRatiosNotWall(t *testing.T) {
	old, new := trendFixtures()
	rows := Trend(old, new, 0.25)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (radio@250, radio@1000, crypto@1000, formation@1000)", len(rows))
	}
	byPair := map[string]TrendRow{}
	for _, r := range rows {
		if r.Mode == "radio" && r.Nodes == 250 {
			byPair["radio250"] = r
		} else {
			byPair[r.Mode] = r
		}
	}

	if r := byPair["radio"]; !r.Regressed || r.OldRatio != 5.0 || r.NewRatio != 2.5 || r.Delta != 0.5 {
		t.Errorf("eroded grid speedup not flagged: %+v", r)
	}
	// Crypto: every wall time quadrupled (machine), ratio moved 4.0 -> ~3.8
	// — inside the threshold, must NOT be flagged despite +300% wall-ms.
	if r := byPair["crypto"]; r.Regressed {
		t.Errorf("machine-speed change flagged as regression: %+v", r)
	}
	if r := byPair["formation"]; r.Missing != "old" || r.Regressed || r.NewRatio != 4.0 {
		t.Errorf("new pair mishandled: %+v", r)
	}
	if r := byPair["radio250"]; r.Missing != "new" || r.Regressed || r.OldRatio != 3.0 {
		t.Errorf("dropped pair mishandled: %+v", r)
	}
	if !Regressed(rows) {
		t.Error("Regressed did not notice the grid erosion")
	}
	// A looser threshold clears everything.
	if Regressed(Trend(old, new, 0.6)) {
		t.Error("60% threshold still flags a halved speedup")
	}
}

// The wire pair ratios allocations per broadcast, not wall time: a
// machine-speed change leaves the ratio untouched, while the pooled cell
// regrowing allocations erodes it. The +1 in the cell value keeps a fully
// alloc-free pooled cell (AllocsPerOp = 0) finite and comparable.
func TestTrendWirePairUsesAllocs(t *testing.T) {
	old := []ScaleResult{
		{Mode: "wire", Nodes: 4000, Index: "nopool", WallMS: 30, AllocsPerOp: 14},
		{Mode: "wire", Nodes: 4000, Index: "pool", WallMS: 20, AllocsPerOp: 0}, // 15.0x
	}
	// Wall times triple (different machine); the pooled path now allocates
	// 4 per op — a real erosion the wall numbers would hide.
	new := []ScaleResult{
		{Mode: "wire", Nodes: 4000, Index: "nopool", WallMS: 90, AllocsPerOp: 14},
		{Mode: "wire", Nodes: 4000, Index: "pool", WallMS: 60, AllocsPerOp: 4}, // 3.0x
	}
	rows := Trend(old, new, 0.15)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Base != "nopool" || r.Opt != "pool" {
		t.Fatalf("wire pair misnamed: %+v", r)
	}
	if r.OldRatio != 15.0 || r.NewRatio != 3.0 || !r.Regressed {
		t.Errorf("alloc regression not flagged through the ratio: %+v", r)
	}
	// Identical allocation behavior on different hardware: no flag.
	same := Trend(old, []ScaleResult{
		{Mode: "wire", Nodes: 4000, Index: "nopool", WallMS: 90, AllocsPerOp: 14},
		{Mode: "wire", Nodes: 4000, Index: "pool", WallMS: 60, AllocsPerOp: 0},
	}, 0.15)
	if Regressed(same) {
		t.Errorf("machine-speed change flagged on the wire pair: %+v", same)
	}
}

// The memo pair ratios primitive signature verification counts, not wall
// time, so a memo losing its cross-node dedup (ops regrowing toward the
// off count) erodes the ratio whatever the machine.
func TestTrendMemoPairUsesOps(t *testing.T) {
	old := []ScaleResult{
		{Mode: "memo", Nodes: 4000, Index: "off", WallMS: 50, VerifyOps: 27968},
		{Mode: "memo", Nodes: 4000, Index: "on", WallMS: 12, VerifyOps: 874}, // 32x
	}
	// Wall times double (different machine); the on cell now computes
	// one walk per node instead of one per group — a real erosion.
	new := []ScaleResult{
		{Mode: "memo", Nodes: 4000, Index: "off", WallMS: 100, VerifyOps: 27968},
		{Mode: "memo", Nodes: 4000, Index: "on", WallMS: 24, VerifyOps: 6992},
	}
	rows := Trend(old, new, 0.15)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Base != "off" || r.Opt != "on" {
		t.Fatalf("memo pair misnamed: %+v", r)
	}
	if !r.Regressed {
		t.Errorf("dedup erosion not flagged through the op-count ratio: %+v", r)
	}
	// Identical op counts on different hardware: no flag.
	same := Trend(old, []ScaleResult{
		{Mode: "memo", Nodes: 4000, Index: "off", WallMS: 100, VerifyOps: 27968},
		{Mode: "memo", Nodes: 4000, Index: "on", WallMS: 40, VerifyOps: 874},
	}, 0.15)
	if Regressed(same) {
		t.Errorf("machine-speed change flagged on the memo pair: %+v", same)
	}
}

// A sweep with an incomplete pair (the optimized cell missing) contributes
// no ratio rather than a bogus one, and a mode with no pair mapping shows
// up as an explicit unpaired row instead of silently escaping the gate.
func TestTrendIgnoresIncompletePairs(t *testing.T) {
	old := []ScaleResult{
		{Mode: "radio", Nodes: 1000, Index: "naive", WallMS: 40},
		// grid cell absent: no ratio can be formed
		{Mode: "mystery", Nodes: 1000, Index: "sweep", WallMS: 5}, // unknown mode
	}
	new := []ScaleResult{
		{Mode: "radio", Nodes: 1000, Index: "naive", WallMS: 40},
		{Mode: "radio", Nodes: 1000, Index: "grid", WallMS: 10},
	}
	rows := Trend(old, new, 0.25)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (radio half-pair + unpaired mystery mode)", len(rows))
	}
	var sawUnpaired bool
	for _, r := range rows {
		switch r.Mode {
		case "radio":
			if r.Missing != "old" || r.Regressed {
				t.Errorf("half-pair mishandled: %+v", r)
			}
		case "mystery":
			sawUnpaired = true
			if r.Missing != "pair" || r.Regressed {
				t.Errorf("unpaired mode mishandled: %+v", r)
			}
		}
	}
	if !sawUnpaired {
		t.Error("unpaired mode vanished from the trend")
	}
	if !strings.Contains(RenderTrend(rows, 0.25), "unpaired mode") {
		t.Error("render does not surface the unpaired mode")
	}
}

func TestTrendRowsAreOrdered(t *testing.T) {
	old, new := trendFixtures()
	rows := Trend(old, new, 0.25)
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Mode > b.Mode || (a.Mode == b.Mode && a.Nodes > b.Nodes) {
			t.Fatalf("rows out of order at %d: %+v before %+v", i, a, b)
		}
	}
}

func TestRenderTrendMarksRegressions(t *testing.T) {
	old, new := trendFixtures()
	out := RenderTrend(Trend(old, new, 0.25), 0.25)
	for _, want := range []string{"REGRESSED", "new pair", "dropped", "naive/grid", "5.00x", "2.50x", "-50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
