package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. Unlike interpolation it always reads a real
// sample, which keeps the median of a two-sized mix of operations on
// one of the two sizes instead of halfway between them. It returns 0
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentileCandidates are the percentiles the report may name, in
// per-mille so the support arithmetic stays exact.
var percentileCandidates = []int{500, 750, 900, 950, 990, 999}

// supportedPercentile applies the reporting rule for a timing: name the
// highest percentile that still has at least ten samples beyond it. It
// returns the percentile (in percent) and how many samples lie beyond
// it; ok is false when even the median lacks that support.
func supportedPercentile(n int) (p float64, beyond int, ok bool) {
	for i := len(percentileCandidates) - 1; i >= 0; i-- {
		pm := percentileCandidates[i]
		if b := n * (1000 - pm) / 1000; b >= 10 {
			return float64(pm) / 10, b, true
		}
	}
	return 0, 0, false
}

// timingSummary renders a latency sample set as median and the highest
// supported percentile, with the sample count.
func timingSummary(name string, ms []float64) string {
	n := len(ms)
	p, beyond, ok := supportedPercentile(n)
	if !ok {
		return fmt.Sprintf("%s: p50 %.3f ms (n=%d; no percentile has 10 samples beyond it)", name, median(ms), n)
	}
	if p == 50 {
		return fmt.Sprintf("%s: p50 %.3f ms (n=%d, %d beyond p50, the highest percentile with 10)", name, median(ms), n, beyond)
	}
	return fmt.Sprintf("%s: p50 %.3f ms, p%g %.3f ms (n=%d, %d beyond p%g)",
		name, median(ms), p, percentile(ms, p), n, beyond, p)
}

// ratio is a derived metric printed together with the two numbers it
// divides, so no share or rate appears without its base.
type ratio struct {
	name     string
	num, den float64
	numLabel string
	denLabel string
	scale    float64 // multiplies num/den (e.g. 100 for a percentage); 0 means 1
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	s := r.scale
	if s == 0 {
		s = 1
	}
	return s * r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%s = %.4g (%s %.6g / %s %.6g)", r.name, r.value(), r.numLabel, r.num, r.denLabel, r.den)
}
