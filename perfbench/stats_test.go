package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolatesLinearly(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, tc := range []struct {
		p, want float64
	}{
		{0.5, 50.5}, // rank 49.5: halfway between 50 and 51
		{0.9, 90.1}, // rank 89.1
		{0.25, 25.75},
	} {
		got, n, err := percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("p%g: %v", tc.p*100, err)
		}
		if n != 100 || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%g = %v (n=%d), want %v (n=100)", tc.p*100, got, n, tc.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, n, err := percentile(make([]float64, 91), 0.9); err == nil || n != 91 {
		t.Errorf("p90 of 91 samples (9 beyond): err=%v n=%d, want refusal with n=91", err, n)
	}
	if _, _, err := percentile(make([]float64, 92), 0.9); err != nil {
		t.Errorf("p90 of 92 samples (10 beyond) refused: %v", err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples accepted")
	}
	if _, _, err := percentile(make([]float64, 19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) accepted")
	}
	if _, _, err := percentile(make([]float64, 20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples (10 beyond) refused: %v", err)
	}
	if _, _, err := percentile(make([]float64, 100), 0.9); err != nil {
		t.Errorf("p90 of 100 samples (10 beyond) refused: %v", err)
	}
	for _, p := range []float64{0, 1, -0.5} {
		if _, _, err := percentile(make([]float64, 1000), p); err == nil {
			t.Errorf("percentile %g accepted", p)
		}
	}
}
