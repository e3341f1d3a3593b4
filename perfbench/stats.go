package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is the number of samples a percentile must have beyond it. A
// p90 over 50 samples rests on 5 points and moves with every one of them.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between the closest ranks (rank p·(n−1), as numpy's
// default), and n. It refuses a quantile with fewer than minTail samples
// ranked above it, so a reported tail is never one or two lucky points:
// p50 needs 20 samples, p90 needs 92.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, n, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank + 1e-9)) // p·(n−1) may land a hair below a whole rank
	if beyond := n - 1 - lo; n == 0 || beyond < minTail {
		return 0, n, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", p*100, n, max(beyond, 0), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	frac := math.Max(rank-float64(lo), 0)
	return s[lo] + frac*(s[lo+1]-s[lo]), n, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts durations to float milliseconds, keeping every digit.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far. Unlike wall
// time it does not grow while the host runs other guests on our vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
