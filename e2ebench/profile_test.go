package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"testing"
)

// pb is a minimal protobuf writer for building canned profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return p.bytes(num, data)
}

// cannedProfile builds a CPU profile with known stacks. Function ids
// equal their string-table index.
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{
		"", "samples", "count", "cpu", "nanoseconds",
		"crypto/internal/edwards25519.(*Point).ScalarBaseMult", // 5
		"crypto/ed25519.Sign",                       // 6
		"sbr6/internal/identity.(*PrivateKey).Sign", // 7
		"sbr6/internal/core.(*Node).sign",           // 8
		"runtime.mallocgc",                          // 9
		"sbr6/internal/wire.Decode",                 // 10
		"sbr6/internal/core.(*Node).Deliver",        // 11
		"runtime.gcBgMarkWorker",                    // 12
		"sbr6.(*Session).Advance",                   // 13
		"main.session",                              // 14
	}
	var prof pb
	prof.bytes(fProfileSampleType, (&pb{}).varint(fValueTypeType, 1).varint(fValueTypeUnit, 2).b)
	prof.bytes(fProfileSampleType, (&pb{}).varint(fValueTypeType, 3).varint(fValueTypeUnit, 4).b)
	// Locations: 1 = ed25519 internals with ed25519.Sign inlined into
	// it, 2 = identity sign, 3 = mallocgc, 4 = wire.Decode,
	// 5 = Deliver, 6 = GC worker, 7 = Session.Advance, 8 = benchmark main.
	locs := map[uint64][]uint64{1: {5, 6}, 2: {7}, 3: {9}, 4: {10}, 5: {11}, 6: {12}, 7: {13}, 8: {14}}
	for id := uint64(1); id <= 8; id++ {
		loc := (&pb{}).varint(fLocationID, id)
		for _, f := range locs[id] {
			loc.bytes(fLocationLine, (&pb{}).varint(fLineFunctionID, f).varint(2, 10).b)
		}
		prof.bytes(fProfileLocation, loc.b)
	}
	for f := uint64(5); f <= 14; f++ {
		prof.bytes(fProfileFunction, (&pb{}).varint(fFunctionID, f).varint(fFunctionName, f).b)
	}
	// Samples (leaf first). Values: count, cpu ns.
	samples := []struct {
		locs []uint64
		cpu  uint64
		pack bool
	}{
		{[]uint64{1, 2, 5, 7, 8}, 50, true}, // stdlib crypto charged to identity
		{[]uint64{3, 4, 5, 8}, 20, false},   // mallocgc charged to wire
		{[]uint64{5, 7}, 10, true},          // core itself
		{[]uint64{6}, 15, true},             // no module frame: other
		{[]uint64{8}, 5, false},             // benchmark main only: other
	}
	for _, s := range samples {
		var sp pb
		if s.pack {
			sp.packed(fSampleLocationID, s.locs...)
			sp.packed(fSampleValue, 1, s.cpu)
		} else {
			for _, l := range s.locs {
				sp.varint(fSampleLocationID, l)
			}
			sp.varint(fSampleValue, 1).varint(fSampleValue, s.cpu)
		}
		prof.bytes(fProfileSample, sp.b)
	}
	for _, s := range strs {
		prof.bytes(fProfileStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesCannedProfile(t *testing.T) {
	got, err := cpuShares(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"identity": 0.5, "wire": 0.2, "core": 0.1, otherLayer: 0.2}
	if len(got) != len(want) {
		t.Fatalf("shares = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

// TestCPUSharesRecordedProfile attributes a real runtime/pprof profile of
// a traced routing run kept in testdata: the shares must sum to one and
// the crypto of per-hop signing must land on identity.
func TestCPUSharesRecordedProfile(t *testing.T) {
	raw, err := os.ReadFile("testdata/routing_cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpuShares(raw)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, got)
	}
	for layer, v := range got {
		if layer != "identity" && v >= got["identity"] {
			t.Errorf("layer %s (%.3f) not below identity (%.3f): %v", layer, v, got["identity"], got)
		}
	}
}

func TestCPUSharesRejectsMalformed(t *testing.T) {
	good := cannedProfile(t)
	for name, raw := range map[string][]byte{
		"not gzip":  []byte("plain"),
		"truncated": gzipBytes(t, []byte{byte(fProfileSample<<3 | wireBytes), 50, 1}),
		"no cpu":    gzipBytes(t, (&pb{}).bytes(fProfileStringTable, nil).b),
	} {
		if _, err := cpuShares(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := cpuShares(good); err != nil {
		t.Fatal(err)
	}
	_, err := cpuShares(gzipBytes(t, []byte{byte(fProfileSample<<3 | wireBytes), 50, 1}))
	if !errors.Is(err, errProto) {
		t.Errorf("truncated message error %v does not wrap errProto", err)
	}
}

func gzipBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerOfFunc(t *testing.T) {
	cases := map[string]string{
		"sbr6/internal/core.(*Node).Deliver.func1":       "core",
		"sbr6.(*Session).Advance":                        "sbr6",
		"sbr6/internal/scenario.sortedIntKeys[...]":      "scenario",
		"sbr6/internal/x.F[go.shape.*sbr6/internal/y.T]": "x",
		"runtime.mallocgc":                               "",
		"main.run":                                       "",
		"sbr6x/foo.Bar":                                  "",
		"github.com/x/sbr6/internal/core.F":              "",
	}
	for fn, want := range cases {
		got, ok := layerOfFunc(fn)
		if ok != (want != "") || got != want {
			t.Errorf("layerOfFunc(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
