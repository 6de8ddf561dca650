package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one traced call into the program: its name, its interval in
// seconds since the run started, the span that enclosed it, and the
// counters read at its two boundaries.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a top-level span
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Begin  map[string]float64 `json:"begin,omitempty"`
	Finish map[string]float64 `json:"end,omitempty"`
}

// tracer keeps the spans of one traced run in memory. A nil *tracer is
// the untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	runID    string
	t0       time.Time
	spans    []span
	open     []int // indexes into spans of the enclosing spans
	counters func() map[string]float64
	samples  []metrics.Sample
	profile  []byte // gzipped CPU profile of the timed phase
}

func newTracer(runID string) *tracer {
	return &tracer{
		runID: runID,
		t0:    time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

// setCounters installs the reader of the workload's own counters (events
// processed, frames sent); it is read at every span boundary next to the
// runtime's allocation counters.
func (t *tracer) setCounters(f func() map[string]float64) {
	if t != nil {
		t.counters = f
	}
}

func (t *tracer) read() map[string]float64 {
	metrics.Read(t.samples)
	out := map[string]float64{
		"runtime.alloc_objects": float64(t.samples[0].Value.Uint64()),
		"runtime.alloc_bytes":   float64(t.samples[1].Value.Uint64()),
	}
	if t.counters != nil {
		for k, v := range t.counters() {
			out[k] = v
		}
	}
	return out
}

// begin opens a span nested in the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, Begin: t.read(),
		Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = time.Since(t.t0).Seconds()
		t.spans[i].Finish = t.read()
		t.open = t.open[:len(t.open)-1]
	}
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	RunID    string             `json:"run_id"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Layer    map[string]float64 `json:"per_layer"`
	Extra    map[string]float64 `json:"workload_metrics"`
}

// write stores the trace under dir as <workload>-seed<seed>.json, and
// the timed phase's CPU profile beside it as .cpu.pb.gz for go tool
// pprof. It returns the trace's path.
func (t *tracer) write(dir string, f traceFile) (string, error) {
	f.RunID, f.Spans = t.runID, t.spans
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", f.Workload, f.Seed))
	b, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pb.gz", t.profile, 0o644); err != nil {
		return "", fmt.Errorf("write profile: %w", err)
	}
	return base + ".json", nil
}
