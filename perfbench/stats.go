package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// pct is the q-quantile of xs with linear interpolation between closest
// ranks; 0 for an empty slice. An +Inf entry sorts last.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	f := pos - float64(lo)
	switch {
	case lo+1 >= len(s) || f <= 0:
		return s[min(lo, len(s)-1)]
	case math.IsInf(s[lo+1], 1):
		return s[lo+1]
	}
	return s[lo] + f*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// calibrate times a fixed loop of float arithmetic over a cache-resident
// array, run at once on every usable CPU, and returns the median of five
// timings in ms. It runs at the start and end of every run, so a change in
// host speed can be told apart from a change in the code. Running on every
// CPU makes it see a core taken by another tenant, which slows the
// two-core workloads but not a single-threaded probe.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	sinks := make([]float64, procs)
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]float64, 1<<14)
				for i := range buf {
					buf[i] = float64(i%97) * 1e-3
				}
				acc := 0.0
				for pass := 0; pass < 400; pass++ {
					for i, v := range buf {
						acc = acc*0.999 + v*float64(i&7)
					}
				}
				sinks[g] += acc
			}()
		}
		wg.Wait()
		times[r] = ms(time.Since(start))
	}
	calibSink = mean(sinks)
	return median(times)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink float64
