// Command sbrbench regenerates the paper's tables, figures and security
// analysis as measured experiments. Each experiment id follows DESIGN.md:
//
//	T1 T2   — Table 1 message formats, Table 2 crypto substrate
//	F1-F3   — Figures 1-3 (CGA layout, secure DAD, route discovery)
//	S1-S4   — Section 4 attacks (DNS impersonation, black hole,
//	          forged/replayed control, RERR spam)
//	E1-E4   — derived measurements (overhead, suite ablation, credit
//	          convergence, collision probability)
//
// Usage:
//
//	sbrbench -exp all            # everything, full sweeps
//	sbrbench -exp S2,E3 -quick   # selected experiments, small sweeps
//	sbrbench -list               # enumerate experiments
//	sbrbench -scale -json        # scale sweeps (radio medium, verify
//	                             # cache, formation), JSON output — this
//	                             # is what seeds BENCH_scale.json
//	sbrbench -trend a.json b.json  # machine-independent speedup-ratio
//	                               # deltas (naive/grid, nocache/cache,
//	                               # serial/percell) between two sweeps;
//	                               # exits 1 beyond -trend-threshold
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sbr6"
	"sbr6/internal/boot"
	"sbr6/internal/experiments"
	"sbr6/internal/radio"
	"sbr6/internal/scalebench"
	"sbr6/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed     = flag.Int64("seed", 1, "simulation seed")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast run")
		reps     = flag.Int("reps", 3, "replicate seeds for stochastic sweeps (fanned out in parallel)")
		progress = flag.Bool("progress", false, "stream per-run progress to stderr while experiments execute")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list available experiments and exit")
		scale    = flag.Bool("scale", false, "run the radio-medium scale sweep (naive vs grid) instead of experiments")
		jsonOut  = flag.Bool("json", false, "with -scale, emit the results as JSON (seeds BENCH_scale.json)")
		rounds   = flag.Int("rounds", 3, "flood rounds per scale cell")
		trend    = flag.Bool("trend", false, "compare two scale sweep JSON files: sbrbench -trend old.json new.json")
		trendTol = flag.Float64("trend-threshold", 0.15, "fractional speedup-ratio erosion that -trend flags as a regression (ratios cancel hardware, so this can be sharp)")
	)
	flag.Parse()

	if *trend {
		os.Exit(runTrend(flag.Args(), *trendTol))
	}

	if *scale {
		if *rounds < 1 {
			fmt.Fprintf(os.Stderr, "sbrbench: -rounds %d must be at least 1\n", *rounds)
			os.Exit(2)
		}
		runScaleSweep(*seed, *rounds, *jsonOut)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Replicates: *reps}
	if *progress {
		opts.Observer = sbr6.NewProgressObserver(os.Stderr)
	}
	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	runExperiments(selected, opts, *csv)
}

// runTrend loads two scale sweep JSON files (older first), renders the
// per-pair speedup-ratio deltas — ratios within one sweep divide two wall
// times from the same hardware, so machine speed cancels — and returns 1
// when any pair's speedup eroded beyond the threshold, the exit code CI
// keys the regression warning on.
func runTrend(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "sbrbench: -trend needs exactly two files: old.json new.json")
		return 2
	}
	load := func(path string) []scalebench.ScaleResult {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbrbench: %v\n", err)
			os.Exit(2)
		}
		var rs []scalebench.ScaleResult
		if err := json.Unmarshal(raw, &rs); err != nil {
			fmt.Fprintf(os.Stderr, "sbrbench: %s: %v\n", path, err)
			os.Exit(2)
		}
		return rs
	}
	rows := scalebench.Trend(load(args[0]), load(args[1]), threshold)
	fmt.Println(scalebench.RenderTrend(rows, threshold))
	if scalebench.Regressed(rows) {
		fmt.Fprintf(os.Stderr, "sbrbench: a speedup ratio eroded beyond -%.0f%% (see table)\n", threshold*100)
		return 1
	}
	return 0
}

// runScaleSweep measures the constant-density flood workload (naive vs
// grid medium), the wire-path workload (pooled vs allocating frames,
// reported as exact allocations per broadcast), the verification workload
// (direct vs memo), the memo workload (a verifier group with its shared
// memo off vs on, reported as exact primitive signature verifications)
// and the formation workload (serial vs per-cell
// admission) at up to 10000 nodes, reporting wall time per round and the
// speedups.
func runScaleSweep(seed int64, rounds int, jsonOut bool) {
	sizes := []int{250, 1000, 4000, 10000}
	var results []scalebench.ScaleResult
	for _, n := range sizes {
		for _, kind := range []radio.IndexKind{radio.IndexNaive, radio.IndexGrid} {
			results = append(results, scalebench.RunScale(n, kind, seed, rounds, time.Now))
		}
	}
	for _, n := range sizes {
		for _, pooled := range []bool{false, true} {
			results = append(results, scalebench.RunWire(n, pooled, seed, rounds, time.Now))
		}
	}
	for _, n := range sizes {
		for _, cached := range []bool{false, true} {
			results = append(results, scalebench.RunCryptoScale(n, cached, seed, rounds, time.Now))
		}
	}
	for _, n := range []int{1000, 4000, 10000} {
		for _, memo := range []bool{false, true} {
			results = append(results, scalebench.RunMemoScale(n, memo, seed, rounds, time.Now))
		}
	}
	for _, n := range []int{1000, 4000, 10000} {
		for _, k := range []boot.Kind{boot.Serial, boot.PerCell} {
			r := scalebench.RunFormation(n, k, seed, time.Now)
			if r.Configured != r.Nodes {
				// Never record an incomplete formation as a speedup: a fast
				// wall clock with unaddressed nodes is a broken policy, and
				// this sweep seeds the trend baseline.
				fmt.Fprintf(os.Stderr, "sbrbench: %s formation at %d nodes left %d unaddressed\n",
					k, n, r.Nodes-r.Configured)
				os.Exit(1)
			}
			results = append(results, r)
		}
	}
	for _, n := range []int{250, 1000, 4000} {
		for _, kind := range []radio.IndexKind{radio.IndexNaive, radio.IndexGrid} {
			results = append(results, scalebench.RunAuditSweep(n, kind, seed, rounds, time.Now))
		}
	}
	// The sharded engine is the only workload that reaches 100k nodes: the
	// naive medium's O(N^2) round is unaffordable there, while the sharded
	// grid round stays linear. Serial is the engine at one region, so the
	// pair divides byte-identical computations and only wall time differs.
	for _, n := range []int{10000, 100000} {
		for _, regions := range []int{1, scalebench.ShardRegions} {
			results = append(results, scalebench.RunShard(n, regions, seed, rounds, time.Now))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	radioT := trace.NewTable("radio medium scale sweep (wall ms per flood round)",
		"nodes", "naive", "grid", "speedup", "mean degree")
	wireT := trace.NewTable("wire path scale sweep (heap allocations per broadcast)",
		"nodes", "nopool", "pool", "reduction", "wall ms/round")
	cryptoT := trace.NewTable("verification scale sweep (wall ms per verify round)",
		"nodes", "nocache", "cache", "speedup", "crypto ops saved")
	memoT := trace.NewTable(fmt.Sprintf("verification memo scale sweep (primitive signature verifications, %d-node verifier group)", scalebench.BindVerifiers),
		"nodes", "off", "on", "reduction", "memo hits")
	formT := trace.NewTable("formation scale sweep (wall ms to fully addressed)",
		"nodes", "serial", "percell", "speedup", "virtual time")
	auditT := trace.NewTable("audit sweep cost (wall ms per sweep period)",
		"nodes", "naive", "grid", "speedup", "events/round")
	shardT := trace.NewTable(fmt.Sprintf("sharded engine flood sweep (wall ms per round, %d regions)", scalebench.ShardRegions),
		"nodes", "serial", "sharded", "speedup", "mean degree")
	for i := 0; i < len(results); i += 2 {
		a, b := results[i], results[i+1]
		switch a.Mode {
		case "radio":
			radioT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS), fmt.Sprintf("%.1f", a.Degree))
		case "wire":
			wireT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.AllocsPerOp), fmt.Sprintf("%.2f", b.AllocsPerOp),
				fmt.Sprintf("%.1fx", (1+a.AllocsPerOp)/(1+b.AllocsPerOp)),
				fmt.Sprintf("%.1f -> %.1f", a.WallMS, b.WallMS))
		case "crypto":
			cryptoT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS),
				fmt.Sprintf("%d/%d", a.VerifyOps-b.VerifyOps, a.VerifyOps))
		case "memo":
			memoT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprint(a.VerifyOps), fmt.Sprint(b.VerifyOps),
				fmt.Sprintf("%.1fx", float64(1+a.VerifyOps)/float64(1+b.VerifyOps)),
				fmt.Sprint(b.CacheHits))
		case "formation":
			formT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS),
				fmt.Sprintf("%.0fs -> %.1fs", a.VirtualS, b.VirtualS))
		case "audit":
			auditT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS),
				fmt.Sprint(a.Events/uint64(a.Rounds)))
		case "shard":
			shardT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS), fmt.Sprintf("%.1f", a.Degree))
		}
	}
	fmt.Println(radioT.String())
	fmt.Println(wireT.String())
	fmt.Println(cryptoT.String())
	fmt.Println(memoT.String())
	fmt.Println(formT.String())
	fmt.Println(auditT.String())
	fmt.Println(shardT.String())
}

func runExperiments(selected []experiments.Experiment, opts experiments.Options, csv bool) {
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		for _, tb := range e.Run(opts) {
			if csv {
				fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
