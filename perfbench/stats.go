package main

import (
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle samples for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (the same rule igdb loadgen
// uses); 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(q*float64(len(s)-1) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(xs, n=4). With fewer than two samples
// both quartiles are the single sample (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := j * (n + 1)
		k, frac := m/4, float64(m%4)/4
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeIt runs f once and returns its wall time.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// windowedMedian splits a run's requests into windows of length w by
// completion time and returns the median over whole windows of each
// window's median latency, so a disturbed second moves it less than it
// moves the run's overall median. With less than one whole window it is
// the overall median.
func windowedMedian(at []time.Duration, lat []float64, w time.Duration) float64 {
	var last time.Duration
	for _, a := range at {
		last = max(last, a)
	}
	n := int(last / w)
	if n == 0 {
		return median(lat)
	}
	byWindow := make([][]float64, n)
	for i, a := range at {
		if k := int(a / w); k < n {
			byWindow[k] = append(byWindow[k], lat[i])
		}
	}
	meds := make([]float64, 0, n)
	for _, l := range byWindow {
		meds = append(meds, median(l))
	}
	return median(meds)
}
