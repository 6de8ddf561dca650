// Command e2ebench is the repository's end-to-end benchmark: secure DAD
// formation at 10k nodes on the default and the sharded engine, routed
// CBR traffic over a mobile secure network, and a churning daemon
// session driven over its JSON-RPC socket. See README.md for the
// workloads, the metrics and how to run it.
//
// Usage:
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// a run fails or a correctness check does not hold.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: its repetition and the number of
// simulation threads it runs, which the host-speed calibration matches.
type workload struct {
	rep     repFunc
	threads int
}

// repFunc runs one repetition of a workload at seed. A nil tracer is the
// untraced, measured repetition. full asks for the checks that cost as
// much as the timed phase again (replaying a session); a run makes them
// once, on its first repetition.
type repFunc func(seed int64, tr *tracer, full bool) (outcome, error)

// outcome is one repetition's measurements.
type outcome struct {
	setup, run float64 // host seconds
	heapKB     float64 // live heap per live node after the timed phase
	checkS     float64 // host seconds spent on the full checks
	speed      float64 // host speed around the repetition, see calibrate
	setupSpeed float64 // host speed just before the repetition's set-up
	ops        tally
	sim        simOut
	extra      map[string]float64 // workload-only end-to-end metrics
	layers     map[string]float64 // traced repetitions only
}

// simOut is the simulated, host-independent output of a repetition. It
// must be identical across repetitions at one seed and between traced
// and untraced repetitions.
type simOut struct {
	Nodes, Configured int
	Events            uint64
	CtrlBytes         float64
	FormationVS       float64 // seconds
	Sent, Delivered   int
	LatencyP95        float64 // seconds
	Signs, Verifies   float64
	OKFrac            float64
}

// errIncorrect marks a failed correctness check.
var errIncorrect = errors.New("correctness check failed")

var workloads = map[string]workload{
	"formation":         {formation(0), 1},
	"formation_sharded": {formation(2), 2},
	"routing":           {routing, 1},
	"session":           {session, 1},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics every measured run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"heap_per_node_kb", "KB"},
	{"ok_frac", "ratio"},
	{"ctrl_kb_per_node", "KB"},
}

// workloadOnly are end-to-end metrics printed in the table above the
// result line. The result line carries every end-to-end metric on every
// workload, so metrics that some workloads lack, or that read the same
// on every seed of a fixed network, stay out of it.
var workloadOnly = []metricDef{
	{"setup_wall_s", "s"},
	{"run_wall_s", "s"},
	{"host_speed", "ratio"},
	{"formation_vs", "sim_s"},
	{"advance_p50_ms", "ms"},
	{"advance_p98_ms", "ms"},
	{"resume_s", "s"},
	{"pkt_latency_p95_ms", "sim_ms"},
}

// cpuLayers are the packages whose share of timed-phase CPU the traced
// run reports; "other" holds samples with no frame in the module.
var cpuLayers = []string{
	"core", "wire", "ndp", "trace", "radio", "identity", "cga", "verifycache",
	"bindtable", "dsr", "sim", "shard", "pool", "mobility", "geom", "ipv6",
	"scenario", "daemon", "sbr6", otherLayer,
}

// perLayer are the metrics every traced run reports, on every workload.
// A count or time of a layer the workload does not exercise reads 0.
var perLayer = append([]metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"radio.tx_frames", "count"},
	{"radio.rx_per_tx", "ratio"},
	{"radio.unicast_fails", "count"},
	{"radio.retries", "count"},
	{"pool.high_water", "count"},
	{"pool.live_end", "count"},
	{"ndp.areq_rx", "count"},
	{"ndp.dad_rounds", "count"},
	{"identity.keygen_s", "s"},
	{"identity.signs", "count"},
	{"identity.verifies", "count"},
	{"verifycache.hit_ratio", "ratio"},
	{"bindtable.hit_ratio", "ratio"},
	{"bindtable.primitive_verifies", "count"},
	{"dsr.discoveries", "count"},
	{"dsr.discoveries_per_flow", "count"},
	{"dsr.rerr_sent", "count"},
	{"shard.parallelism", "ratio"},
	{"shard.region_imbalance", "ratio"},
	{"shard.global_events", "count"},
	{"scenario.build_s", "s"},
	{"scenario.bootstrap_s", "s"},
	{"scenario.advance_p50_ms", "ms"},
	{"daemon.info_p50_ms", "ms"},
	{"sbr6.snapshot_ms", "ms"},
	{"sbr6.snapshot_kb", "KB"},
	{"sbr6.resume_events", "count"},
	{"trace_overhead_frac", "ratio"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		defs[i] = metricDef{l + ".cpu_share", "ratio"}
	}
	return defs
}

// traceDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/traces"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; flows, placement and churn derive from it")
	seconds := fs.Float64("seconds", 20, "measurement budget of one run in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(stdout, *name, wl.rep, *seed)
	} else {
		res, err = measuredRun(stdout, wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s seed %d: %v\n", *name, *seed, err)
		if !errors.Is(err, errIncorrect) {
			return 1
		}
		res.Correct = false
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "e2ebench: encode result: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minReps is the fewest repetitions a measured run makes, whatever its
// budget.
const minReps = 2

// measuredRun repeats the workload at one seed until the next repetition
// would overrun the budget, and reports the median host times. The first
// repetition's full checks do not count against the budget. Simulated
// outputs must repeat exactly.
//
// The shared host's speed drifts by up to ±40% over minutes while
// repetitions inside one run agree to a few percent, so each
// repetition's host times are scaled by the host speed: calNominal over
// the calibrate() time just before the set-up for setup_s, and over the
// mean of the calibrations before and after the repetition for run_s.
// The raw wall times and the run's speed are printed in the table.
func measuredRun(w io.Writer, wl workload, seed int64, seconds float64) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	start := time.Now()
	var measured float64 // wall seconds of the repetitions, full checks excluded
	var outs []outcome
	ref := calibrate(wl.threads)
	for {
		repStart := time.Now()
		o, err := wl.rep(seed, nil, len(outs) == 0)
		res.Attempted += o.ops.attempted
		res.Failed += o.ops.failed
		if err != nil {
			return res, err
		}
		if len(outs) > 0 && o.sim != outs[0].sim {
			return res, fmt.Errorf("%w: repetition %d simulated %+v, the first %+v", errIncorrect, len(outs)+1, o.sim, outs[0].sim)
		}
		rep := since(repStart) - o.checkS
		next := calibrate(wl.threads)
		o.setupSpeed = calNominal / ref
		o.speed = calNominal / ((ref + next) / 2)
		ref = next
		outs = append(outs, o)
		measured += rep
		if len(outs) >= minReps && measured+rep > seconds {
			break
		}
	}
	collect := func(f func(outcome) float64) []float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return xs
	}
	sim := outs[0].sim
	samples := map[string][]float64{
		"setup_s":          collect(func(o outcome) float64 { return o.setup * o.setupSpeed }),
		"run_s":            collect(func(o outcome) float64 { return o.run * o.speed }),
		"setup_wall_s":     collect(func(o outcome) float64 { return o.setup }),
		"run_wall_s":       collect(func(o outcome) float64 { return o.run }),
		"host_speed":       collect(func(o outcome) float64 { return o.speed }),
		"heap_per_node_kb": collect(func(o outcome) float64 { return o.heapKB }),
		"ok_frac":          {sim.OKFrac},
		"ctrl_kb_per_node": {sim.CtrlBytes / 1024 / float64(sim.Nodes)},
		"formation_vs":     {sim.FormationVS},
	}
	for _, m := range workloadOnly {
		for _, o := range outs {
			if v, ok := o.extra[m.name]; ok {
				samples[m.name] = append(samples[m.name], v)
			}
		}
	}
	fmt.Fprintf(w, "# %d repetitions in %.1f s; simulated %+v\n", len(outs), since(start), sim)
	for _, m := range endToEnd {
		v := median(samples[m.name])
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-20s %14.6g %-6s samples %v\n", m.name, v, m.unit, samples[m.name])
	}
	for _, m := range workloadOnly {
		if xs, ok := samples[m.name]; ok {
			fmt.Fprintf(w, "%-20s %14.6g %-6s samples %v (table only)\n", m.name, median(xs), m.unit, xs)
		}
	}
	return res, nil
}

// tracedRun makes one untraced repetition as the baseline, then one
// traced repetition, checks their simulated outputs agree, and reports
// the traced repetition's per-layer metrics. The spans go to traceDir.
func tracedRun(w io.Writer, name string, fn repFunc, seed int64) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	base, err := fn(seed, nil, false)
	res.Attempted += base.ops.attempted
	res.Failed += base.ops.failed
	if err != nil {
		return res, err
	}
	tr := newTracer(fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
	endSpan := tr.begin(name)
	o, err := fn(seed, tr, true)
	endSpan()
	res.Attempted += o.ops.attempted
	res.Failed += o.ops.failed
	if err != nil {
		return res, err
	}
	if o.sim != base.sim {
		return res, fmt.Errorf("%w: traced repetition simulated %+v, untraced %+v", errIncorrect, o.sim, base.sim)
	}
	o.layers["trace_overhead_frac"] = o.run / base.run
	for _, m := range perLayer {
		v := o.layers[m.name]
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, v, m.unit)
	}
	path, err := tr.write(traceDir, traceFile{Workload: name, Seed: seed, Layer: o.layers, Extra: o.extra})
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "# trace: %s (%d spans)\n", path, len(tr.spans))
	return res, nil
}
