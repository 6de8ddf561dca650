package scalebench

import (
	"testing"
	"time"
)

// fakeNow is a deterministic stand-in clock; the assertions here are
// about exact counters, never wall time.
func fakeNow() func() time.Time {
	t0 := time.Unix(0, 0)
	return func() time.Time {
		t0 = t0.Add(time.Millisecond)
		return t0
	}
}

// The memo workload's trend cell gates on counters, so they must be
// exact: the logical request count is identical with the memo on and off
// (the differential bar), the off primitive count is exactly BindVerifiers
// x CryptoDuplicates times the on one (every chain copy computes at every
// node, versus one walk per group), and every other copy lands as a chain
// hit.
func TestRunMemoScaleCountersExact(t *testing.T) {
	const n, seed, rounds = 250, 7, 2
	off := RunMemoScale(n, false, seed, rounds, fakeNow())
	on := RunMemoScale(n, true, seed, rounds, fakeNow())

	if off.Index != "off" || on.Index != "on" {
		t.Fatalf("cells misnamed: %q / %q", off.Index, on.Index)
	}
	if off.VerifyRequests != on.VerifyRequests || off.VerifyRequests == 0 {
		t.Fatalf("logical requests must be identical memo on/off: off %d, on %d",
			off.VerifyRequests, on.VerifyRequests)
	}
	if off.VerifyOps != off.VerifyRequests {
		t.Errorf("off cell computed %d primitives for %d requests", off.VerifyOps, off.VerifyRequests)
	}
	if on.VerifyOps == 0 {
		t.Fatal("on cell computed no primitives — the workload is vacuous")
	}
	if ratio := uint64(BindVerifiers * CryptoDuplicates); off.VerifyOps != ratio*on.VerifyOps {
		t.Errorf("off ops %d != %d x on ops %d: the dedup ratio is not group size x duplicates",
			off.VerifyOps, ratio, on.VerifyOps)
	}
	chains := on.VerifyOps / (CryptoChainHops + 1)
	if want := (BindVerifiers*CryptoDuplicates - 1) * chains; on.CacheHits != want {
		t.Errorf("memo hits %d != %d: an avoided chain walk did not land as a hit", on.CacheHits, want)
	}
	if off.CacheHits != 0 {
		t.Errorf("off cell reported %d memo hits with no memo", off.CacheHits)
	}
}
