package main

import "math/bits"

// latHist is a log-linear latency histogram in nanoseconds: values below
// 2^histSub are exact, and each power of two above is split into
// 2^histSub buckets, so a quantile is within 1/2^histSub (0.2%) of the
// sample it stands for. Recording allocates nothing, so measuring does
// not make the garbage collector run in the measured window, and the
// benchmark's memory does not grow with the number of calls.
type latHist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSub     = 9
	histMaxExp  = 26 // values up to 2^36 ns (about a minute)
	histBuckets = (histMaxExp + 2) << histSub
)

func histIndex(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSub - 1
	if exp > histMaxExp {
		return histBuckets - 1
	}
	return (exp+1)<<histSub + int(uint64(v)>>exp) - 1<<histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) int64 {
	if i < 1<<histSub {
		return int64(i)
	}
	exp := i>>histSub - 1
	lo := int64(1<<histSub+i&(1<<histSub-1)) << exp
	return lo + (int64(1)<<exp)/2
}

func (h *latHist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1) in ns; 0
// for an empty histogram.
func (h *latHist) quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(p*float64(h.n)+0.999999999) - 1
	rank = max(0, min(rank, h.n-1))
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
