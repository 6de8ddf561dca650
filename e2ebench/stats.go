package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 over fewer than 1000 samples rests on fewer than ten observations
// and is refused rather than reported.
const minTail = 10

// errThinTail is returned by percentile when too few samples lie beyond
// the requested rank.
var errThinTail = errors.New("too few samples beyond the percentile")

// median returns the middle value (the mean of the two middle values for
// an even count) without reordering xs. It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1),
// refusing with errThinTail when fewer than minTail samples rank above it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based; the slack absorbs p's binary rounding
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d: %w",
			100*p, n, n-rank, minTail, errThinTail)
	}
	return sortedCopy(xs)[rank-1], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts operations attempted and failed. Refused operations are
// attempts too, so they lower okFrac instead of vanishing from it.
type tally struct {
	attempted, failed int
}

// record counts one operation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// add counts n operations of which ok succeeded.
func (t *tally) add(n, ok int) {
	t.attempted += n
	t.failed += n - ok
}

// okFrac is the share of attempted operations that succeeded; 0 when
// nothing was attempted.
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
