package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// phase measures one timed phase. Untraced it reads the wall clock only;
// traced it also profiles the CPU and reads the runtime's allocation,
// GC and process CPU counters at both ends, and hands the profile to the
// tracer.
type phase struct {
	tr   *tracer
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	gc0  [2]float64
	prof bytes.Buffer
}

// phaseStats is what a traced phase adds to its wall time.
type phaseStats struct {
	cpuS     float64 // process user+system CPU seconds
	gcFrac   float64 // share of the runtime's CPU estimate spent in GC
	mallocs  uint64
	allocMB  float64
	cpuShare map[string]float64
}

func beginPhase(tr *tracer) (*phase, error) {
	p := &phase{tr: tr}
	if tr != nil {
		runtime.GC()
		p.cpu0 = processCPU()
		runtime.ReadMemStats(&p.ms0)
		p.gc0 = gcCPU()
		if err := pprof.StartCPUProfile(&p.prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	p.t0 = time.Now()
	return p, nil
}

// end returns the phase's wall seconds and, when traced, its statistics.
func (p *phase) end() (float64, phaseStats, error) {
	wall := time.Since(p.t0).Seconds()
	var st phaseStats
	if p.tr == nil {
		return wall, st, nil
	}
	pprof.StopCPUProfile()
	p.tr.profile = p.prof.Bytes()
	st.cpuS = processCPU() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - p.ms0.Mallocs
	st.allocMB = float64(ms.TotalAlloc-p.ms0.TotalAlloc) / 1e6
	gc := gcCPU()
	if total := gc[1] - p.gc0[1]; total > 0 {
		st.gcFrac = (gc[0] - p.gc0[0]) / total
	}
	shares, err := cpuShares(p.prof.Bytes())
	if err != nil {
		return 0, st, err
	}
	st.cpuShare = shares
	return wall, st, nil
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPU returns the runtime's estimates of GC CPU seconds and total CPU
// seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// liveHeapKB forces a collection and returns the live heap in KB.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
