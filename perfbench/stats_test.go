package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}} {
		if got, _ := percentile(xs, c.q); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", 100*c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
}

// TestPercentileTenBeyondRule pins the reporting rule: a percentile is
// reportable only with at least ten samples ranked above it.
func TestPercentileTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{200, 0.95, true}, {199, 0.95, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		if _, ok := percentile(seq(c.n), c.q); ok != c.ok {
			t.Errorf("n=%d p%g: reportable=%v, want %v", c.n, 100*c.q, ok, c.ok)
		}
	}
	if l := quantileLine("x", seq(999), 0.99); l.note != "n=999, fewer than 10 samples beyond p99" {
		t.Errorf("short sample note = %q", l.note)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestMedianSetupRepeatsUntilBothLimits(t *testing.T) {
	calls := 0
	_, err := medianSetup(3, 10, 0, func() error { calls++; return nil })
	if err != nil || calls != 3 {
		t.Fatalf("minReps: %d calls, err %v", calls, err)
	}
	calls = 0
	_, err = medianSetup(1, 5, time.Hour, func() error { calls++; return nil })
	if err != nil || calls != 5 {
		t.Fatalf("maxReps cap: %d calls, err %v", calls, err)
	}
}
