package main

import (
	"math"
	"math/bits"
	"sort"
)

// histSub is the number of linear sub-buckets per power of two: 32 keeps
// every quantile within about 3% of the true value while the histogram
// stays a fixed-size array, so recording a span never allocates.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist is a log-linear histogram of non-negative durations or sizes. It
// holds the per-tick and per-call spans, which are far too many to keep
// one by one (a campaign run ticks tens of millions of times).
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(uint64(v)>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns the lower edge and width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	return float64(uint64(histSub+sub) << (e - histSubBits)), float64(uint64(1) << (e - histSubBits))
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for an
// empty histogram. Within the bucket holding the rank it interpolates
// linearly, as if the bucket's samples were spread evenly across it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// samples keeps every observation of a rare event (a day, a recovery, a
// set-up) so its percentiles are exact.
type samples []float64

// quantile returns the q-quantile interpolated linearly between the two
// nearest order statistics (numpy's default), or 0 when empty. A run has
// tens of days, and a nearest-rank tail would jump from one day to the
// next as the count changes.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	h := q * float64(len(c)-1)
	i := int(h)
	if i+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[i] + (h-float64(i))*(c[i+1]-c[i])
}

// mean returns the arithmetic mean, or 0 when empty.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailOK reports whether a q-quantile over n samples has at least ten
// samples beyond it, the rule for quoting a tail percentile.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}
