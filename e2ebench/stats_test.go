package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// TestPercentileTailRule pins the reporting rule: a percentile is given
// only when at least ten samples lie beyond it.
func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		refuse bool
	}{
		{1000, 0.99, 990, false}, // exactly ten beyond
		{999, 0.99, 0, true},     // nine beyond
		{500, 0.99, 0, true},
		{500, 0.98, 490, false},
		{20, 0.5, 10, false},
		{19, 0.5, 0, true},
		{1000, 0.5, 500, false},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d_p%g", c.n, c.p), func(t *testing.T) {
			got, err := percentile(ramp(c.n), c.p)
			if c.refuse {
				if !errors.Is(err, errThinTail) {
					t.Fatalf("percentile = %v, %v; want errThinTail", got, err)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("percentile = %v, %v; want %v", got, err, c.want)
			}
		})
	}
	for _, p := range []float64{0, 1, -0.5} {
		if _, err := percentile(ramp(2000), p); err == nil {
			t.Errorf("percentile(p=%v) accepted", p)
		}
	}
}

// TestOKFracCountsRefusals checks that refused or failed operations stay
// in the denominator of ok_frac.
func TestOKFracCountsRefusals(t *testing.T) {
	var tl tally
	if tl.okFrac() != 0 {
		t.Fatalf("empty tally ok_frac = %v, want 0", tl.okFrac())
	}
	refused := errors.New("refused")
	for i := 0; i < 6; i++ {
		tl.record(nil)
	}
	tl.record(refused)
	tl.record(refused)
	tl.add(2, 1) // two injected nodes, one configured
	if tl.attempted != 10 || tl.failed != 3 {
		t.Fatalf("tally = %+v, want 10 attempted, 3 failed", tl)
	}
	if got := tl.okFrac(); got != 0.7 {
		t.Fatalf("ok_frac = %v, want 0.7", got)
	}
}
