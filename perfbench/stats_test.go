package main

import (
	"math"
	"testing"
	"time"
)

func TestRankQuantile(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.1, 10}, {0.11, 20}, {0.5, 50}, {0.99, 100}, {1, 100}} {
		if got := rankQuantile(xs, c.q); got != c.want {
			t.Errorf("rankQuantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := rankQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %d", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) and
// statistics.median return for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 1, 5}, 1, 5, 7},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
	} {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference figures skip stretches in which the generator fell behind
// its schedule, and take every stretch when none kept it.
func TestOnSchedule(t *testing.T) {
	ms := float64(time.Millisecond)
	w := windowResult{
		readP50: 7, readP99: 70,
		stretchP50: []float64{1, 9, 3, 2},
		stretchP99: []float64{10, 90, 30, 20},
		stretchLag: []float64{1 * ms, 4 * ms, 2 * ms, 1.5 * ms},
	}
	if p50, p99, n := w.onSchedule(); p50 != 2 || p99 != 20 || n != 3 {
		t.Errorf("onSchedule = %d, %d, %d; want 2, 20, 3", p50, p99, n)
	}
	w.stretchLag = []float64{3 * ms, 4 * ms, 5 * ms, 6 * ms}
	if p50, p99, n := w.onSchedule(); p50 != 7 || p99 != 70 || n != 0 {
		t.Errorf("none on schedule: onSchedule = %d, %d, %d; want 7, 70, 0", p50, p99, n)
	}
}
