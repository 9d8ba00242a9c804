package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 over fewer than 1000 samples is the largest few values,
// not a percentile.
const minBeyond = 10

// percentileLadder lists the tail percentiles from the highest one reported
// downwards; supportedTail falls down it when a slice is too thin. The
// metrics stay p99 by name and by value; a run whose slices do not support
// p99 says which percentile they do support.
var percentileLadder = []float64{0.99, 0.95, 0.90, 0.75}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is not modified. It returns 0 for an empty input.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns 0 for an empty input.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return per(sum, float64(len(xs)))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for an s already in ascending order. It
// returns 0 for an empty input.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// supportedTail returns the highest percentile on the ladder that has at
// least minBeyond samples beyond it in every slice (the smallest slice
// decides), or the lowest rung when none does.
func supportedTail(sliceCounts []int) float64 {
	least := math.MaxInt
	for _, n := range sliceCounts {
		if n < least {
			least = n
		}
	}
	for _, p := range percentileLadder {
		if float64(least)*(1-p) >= minBeyond {
			return p
		}
	}
	return percentileLadder[len(percentileLadder)-1]
}

// summary is one timing metric over a window cut into slices: the statistic
// is computed inside each slice and the median across the slices read is
// reported, so a burst that the machine did not give away moves one slice,
// not the number.
type summary struct {
	value  float64 // median across slices
	q1, q3 float64 // quartiles across slices
	n      int     // samples over all slices
}

// acrossSlices reduces per-slice values to their median and quartiles.
func acrossSlices(perSlice []float64, n int) summary {
	return summary{value: median(perSlice), q1: quantile(perSlice, 0.25), q3: quantile(perSlice, 0.75), n: n}
}

// relDiff is |a-b| as a share of a, the first set's value.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
