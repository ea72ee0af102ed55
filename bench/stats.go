package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. xs is not modified; an empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// tailQuantile is the p90 of xs, the highest of the usual percentiles
// that keeps at least ten samples beyond it once xs holds 100 or more.
func tailQuantile(xs []float64) float64 { return quantile(xs, 0.9) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

// timeMedian runs fn until budget has elapsed (at least minRuns times)
// and returns the median duration of one call.
func timeMedian(budget time.Duration, minRuns int, fn func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minRuns || time.Since(start) < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}
