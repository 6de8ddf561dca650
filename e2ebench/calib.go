package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// calItem is one heap object of the calibration working set.
type calItem struct {
	key  uint64
	next *calItem
	pad  [48]byte
}

var calSink atomic.Uint64 // keeps the calibration loop from being optimized away

// calNominal is calibrate's duration on the reference host at its usual
// speed; host times are reported as if the host ran at that speed.
const calNominal = 0.1

// calibrate times a fixed workload that uses only the standard library,
// so no change to the program can move it: ed25519 signing, SHA-256,
// map churn over a working set of a few MB and small allocations — the
// simulator's own mix. It runs on as many goroutines as the workload
// simulates on, starts from a collected heap with freed memory returned
// to the OS, so the repetition before it leaves no sweeping or
// scavenging behind, and returns the median of three timings.
func calibrate(threads int) float64 {
	debug.FreeOSMemory()
	ts := make([]float64, 3)
	for i := range ts {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibrateOnce()
			}()
		}
		wg.Wait()
		ts[i] = since(t0)
	}
	return median(ts)
}

func calibrateOnce() {
	seed := sha256.Sum256([]byte("e2ebench calibration"))
	key := ed25519.NewKeyFromSeed(seed[:])
	m := make(map[uint64]*calItem, 1<<16)
	var sink uint64
	var list *calItem
	h := seed
	for i := 0; i < 150000; i++ {
		if i%500 == 0 {
			copy(h[:], ed25519.Sign(key, h[:]))
		}
		if i%4 == 0 {
			h = sha256.Sum256(h[:])
		}
		k := binary.LittleEndian.Uint64(h[(i%4)*8:]) + uint64(i)
		it := &calItem{key: k, next: list}
		list = it
		m[k&0xffff] = it
		if j := m[(k>>20)&0xffff]; j != nil {
			sink += j.key & 1
		}
		if i%1024 == 0 {
			list = nil
		}
	}
	calSink.Add(sink)
}
