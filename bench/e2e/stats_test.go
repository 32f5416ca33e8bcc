package main

import (
	"math"
	"testing"
)

func TestTailPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailPercentile(xs, 0.90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	got, err := tailPercentile(xs, 0.90)
	if err != nil {
		t.Fatalf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if want := 90.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want %v", got, want)
	}
	for p, want := range map[float64]int{0.5: 20, 0.75: 40, 0.8: 50, 0.9: 100, 0.99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%v) = %d, want %d", p, got, want)
		}
		if beyond(want, p) < minBeyond || beyond(want-1, p) >= minBeyond {
			t.Errorf("minSamples(%v) = %d is not the smallest sample count with %d beyond", p, want, minBeyond)
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the
	// exclusive method extrapolates past a small sample's ends.
	if q1, q2, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Fatalf("quartiles(1, 3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	// statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
	if q1, q2, q3 := quartiles([]float64{5, 1, 4}); q1 != 1 || q2 != 4 || q3 != 5 {
		t.Fatalf("quartiles(5, 1, 4) = %v %v %v, want 1 4 5", q1, q2, q3)
	}
}
