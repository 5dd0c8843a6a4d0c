package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of ds, which
// it sorts in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func medianDuration(ds []time.Duration) time.Duration {
	return percentile(append([]time.Duration(nil), ds...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows is how many equal slices of the timed phase the end-to-end
// metrics are computed over; each metric reports the median slice, so a
// burst of noise from outside the benchmark moves one slice, not the
// result.
const windows = 3

// window is one slice of the timed phase.
type window struct {
	lat    []time.Duration
	cpu    time.Duration
	length time.Duration
	steal  float64 // share of busy CPU time the hypervisor stole
}

// splitWindows slices a run's samples by completion time. The last window
// also holds the operations in flight at the deadline.
func splitWindows(res *e2eResult, dur time.Duration) []window {
	ws := make([]window, windows)
	step := dur / windows
	for _, s := range res.tally.samples {
		k := int(s.at / step)
		if k >= windows {
			k = windows - 1
		}
		ws[k].lat = append(ws[k].lat, s.lat)
		ws[k].cpu += s.cpu
	}
	for k := range ws {
		ws[k].length = step
		ws[k].steal = res.marks.stealShare(k, k+1)
		if res.served { // the daemon's CPU, not the samples'
			ws[k].cpu = res.marks.cpu[k+1] - res.marks.cpu[k]
		}
	}
	ws[windows-1].length = res.elapsed - step*(windows-1)
	return ws
}
