package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie strictly above a
// reported percentile: a p99 needs at least 1000 samples, a p95 200.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank
// and whether the sample is large enough to report it: at least
// minBeyond samples must rank above it. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], len(s)-(rank+1) >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileLine reports the q-quantile of ms as a metric line that
// states the sample count and flags a sample too small for the
// at-least-ten-beyond rule.
func quantileLine(metric string, ms []float64, q float64) reportLine {
	v, ok := percentile(ms, q)
	line := reportLine{name: metric, value: v, unit: "ms", note: fmt.Sprintf("n=%d", len(ms))}
	if !ok {
		line.note += fmt.Sprintf(", fewer than %d samples beyond p%g", minBeyond, 100*q)
	}
	return line
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
