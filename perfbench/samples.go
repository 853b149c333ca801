package main

import (
	"sort"
	"syscall"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// sorting xs in place; 0 for no samples.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(p*float64(len(xs))+0.999999999) - 1
	return xs[max(0, min(rank, len(xs)-1))]
}

// medianFloat returns the median of xs (mean of the middle pair for an
// even count), sorting xs in place.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func int64sToFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// splitmix is a small deterministic generator for workload inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (s *splitmix) intn(n int64) int64 {
	return int64(s.next() % uint64(n))
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// streamSeed derives the seed of one input stream (a client in a
// phase) from the run seed.
func streamSeed(seed int64, parts ...int64) splitmix {
	s := splitmix(uint64(seed))
	for _, p := range parts {
		s.next()
		s ^= splitmix(uint64(p) * 0x9e3779b97f4a7c15)
	}
	s.next()
	return s
}
