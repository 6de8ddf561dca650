package scalebench

// Trend comparison between two scale sweeps (BENCH_scale.json shaped):
// the ROADMAP's "make regressions visible in the PR, not after" renderer.
//
// Raw wall-ms is a property of whoever ran the sweep — the committed
// baseline and a CI runner disagree by integer factors on identical code —
// so absolute deltas force a uselessly loose gate. What IS comparable
// across machines is the speedup ratio inside one sweep: naive/grid,
// nocache/cache and serial/percell each divide two wall times measured
// back-to-back on the same hardware, so the hardware cancels. The trend
// aligns those ratios per (mode, nodes) pair between the two sweeps and
// flags any pair whose speedup eroded beyond the threshold — a sharp,
// machine-independent regression signal. cmd/sbrbench -trend drives this
// against the previous commit's archived artifact (falling back to the
// committed BENCH_scale.json).

import (
	"fmt"
	"sort"

	"sbr6/internal/trace"
)

// ratioPair names the baseline and optimized Index of one mode's speedup
// ratio. Adding a mode to the sweep only needs a row here.
type ratioPair struct {
	base, opt string
}

var ratioPairs = map[string]ratioPair{
	"radio":     {base: "naive", opt: "grid"},
	"crypto":    {base: "nocache", opt: "cache"},
	"formation": {base: "serial", opt: "percell"},
	"wire":      {base: "nopool", opt: "pool"},
	"shard":     {base: "serial", opt: "sharded"},
	"audit":     {base: "naive", opt: "grid"},
	"memo":      {base: "off", opt: "on"},
}

// cellValue is the quantity a mode's ratio divides. Wall time for the
// wall-bound modes; for the wire mode, allocations per broadcast — exact
// and machine-independent in a deterministic single-threaded simulation,
// so its ratio gates the pooled path far more sharply than wall time
// could. The +1 keeps the ratio finite and stable when the pooled cell is
// fully allocation-free (its ideal steady state). The memo mode gates on
// the primitive signature verification count for the same reason: the
// count is exact, and its off/on ratio is the verifier-group size times
// the duplicates per chain by construction.
func cellValue(r ScaleResult) float64 {
	switch r.Mode {
	case "wire":
		return 1 + r.AllocsPerOp
	case "memo":
		return 1 + float64(r.VerifyOps)
	}
	return r.WallMS
}

// TrendRow is one aligned speedup ratio of two sweeps.
type TrendRow struct {
	Mode  string
	Nodes int
	// Base and Opt name the two cells the ratio divides (e.g. naive/grid).
	Base, Opt string

	// OldRatio and NewRatio are base-wall over opt-wall within each sweep:
	// how many times faster the optimized variant ran on that sweep's own
	// hardware. > 1 means the optimization pays off.
	OldRatio float64
	NewRatio float64
	// Delta is the fractional speedup erosion, positive = the optimization
	// buys less than it used to. Only meaningful when Missing is empty.
	Delta float64
	// Regressed marks Delta beyond the comparison threshold.
	Regressed bool
	// Missing is "old" or "new" when the pair is complete on one side only
	// — reported, never a regression (sweeps legitimately grow cells) —
	// and "pair" for a sweep mode with no ratioPairs mapping at all: the
	// mode is visible in the render instead of silently escaping the gate.
	Missing string
}

// pairID aligns ratio pairs across sweeps.
type pairID struct {
	mode  string
	nodes int
}

// ratios extracts every complete (mode, nodes) speedup ratio of one sweep.
func ratios(rs []ScaleResult) map[pairID]float64 {
	cells := map[string]float64{}
	for _, r := range rs {
		cells[r.Mode+"\x00"+r.Index+"\x00"+fmt.Sprint(r.Nodes)] = cellValue(r)
	}
	out := map[pairID]float64{}
	for _, r := range rs {
		pair, known := ratioPairs[r.Mode]
		if !known || r.Index != pair.base {
			continue
		}
		opt, ok := cells[r.Mode+"\x00"+pair.opt+"\x00"+fmt.Sprint(r.Nodes)]
		base := cellValue(r)
		if !ok || opt <= 0 || base <= 0 {
			continue
		}
		out[pairID{r.Mode, r.Nodes}] = base / opt
	}
	return out
}

// unpaired collects the (mode, nodes) cells of both sweeps whose mode has
// no ratioPairs mapping — they cannot be gated, but they must not vanish
// from the render either.
func unpaired(sweeps ...[]ScaleResult) map[pairID]bool {
	out := map[pairID]bool{}
	for _, rs := range sweeps {
		for _, r := range rs {
			if _, known := ratioPairs[r.Mode]; !known {
				out[pairID{r.Mode, r.Nodes}] = true
			}
		}
	}
	return out
}

// Trend aligns the speedup ratios of two sweeps and computes the per-pair
// erosion. Rows are ordered mode, then nodes, so renders are stable
// whatever order the JSON carried.
func Trend(old, new []ScaleResult, threshold float64) []TrendRow {
	olds, news := ratios(old), ratios(new)
	ids := make([]pairID, 0, len(olds)+len(news))
	for id := range olds {
		ids = append(ids, id)
	}
	for id := range news {
		if _, dup := olds[id]; !dup {
			ids = append(ids, id)
		}
	}
	loose := unpaired(old, new)
	for id := range loose {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].mode != ids[b].mode {
			return ids[a].mode < ids[b].mode
		}
		return ids[a].nodes < ids[b].nodes
	})

	rows := make([]TrendRow, 0, len(ids))
	for _, id := range ids {
		pair := ratioPairs[id.mode]
		row := TrendRow{Mode: id.mode, Nodes: id.nodes, Base: pair.base, Opt: pair.opt}
		o, hasOld := olds[id]
		n, hasNew := news[id]
		switch {
		case loose[id]:
			row.Missing = "pair"
		case !hasNew:
			row.OldRatio, row.Missing = o, "new"
		case !hasOld:
			row.NewRatio, row.Missing = n, "old"
		default:
			row.OldRatio, row.NewRatio = o, n
			row.Delta = (o - n) / o
			row.Regressed = row.Delta > threshold
		}
		rows = append(rows, row)
	}
	return rows
}

// Regressed reports whether any aligned pair's speedup eroded beyond the
// threshold.
func Regressed(rows []TrendRow) bool {
	for _, r := range rows {
		if r.Regressed {
			return true
		}
	}
	return false
}

// RenderTrend renders the aligned ratios as a table, flagging regressions.
func RenderTrend(rows []TrendRow, threshold float64) string {
	t := trace.NewTable(
		fmt.Sprintf("scale sweep trend (machine-independent speedup ratios; REGRESSED beyond -%.0f%%)", threshold*100),
		"mode", "nodes", "ratio", "old", "new", "delta", "")
	for _, r := range rows {
		flag := ""
		delta := "-"
		oldR, newR := "-", "-"
		switch {
		case r.Missing == "pair":
			flag = "unpaired mode (not gated)"
		case r.Missing == "new":
			oldR = fmt.Sprintf("%.2fx", r.OldRatio)
			flag = "dropped"
		case r.Missing == "old":
			newR = fmt.Sprintf("%.2fx", r.NewRatio)
			flag = "new pair"
		default:
			oldR = fmt.Sprintf("%.2fx", r.OldRatio)
			newR = fmt.Sprintf("%.2fx", r.NewRatio)
			delta = fmt.Sprintf("%+.1f%%", -r.Delta*100)
			if r.Regressed {
				flag = "REGRESSED"
			}
		}
		t.Add(r.Mode, fmt.Sprint(r.Nodes), r.Base+"/"+r.Opt, oldR, newR, delta, flag)
	}
	return t.String()
}
