// Package privacy implements the paper's Section III-D: differential
// privacy mechanisms for protecting training statistics, a federated
// fine-tuning simulation (FedAvg over heterogeneous clients, optionally
// with DP-SGD-style clipped and noised updates), and a membership-inference
// attack harness that quantifies how much the DP defense actually helps.
//
//llmdm:allow reach paper §III-D privacy: DESIGN documents the exported API as paper coverage
package privacy

import (
	"fmt"
	"math"
	"math/rand"
)

// Laplace draws Laplace(0, scale) noise from rng.
func Laplace(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Gaussian draws N(0, sigma^2) noise from rng.
func Gaussian(rng *rand.Rand, sigma float64) float64 {
	return rng.NormFloat64() * sigma
}

// PrivateCount returns an epsilon-DP count via the Laplace mechanism
// (sensitivity 1).
func PrivateCount(rng *rand.Rand, trueCount int, epsilon float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("privacy: non-positive epsilon")
	}
	return float64(trueCount) + Laplace(rng, 1/epsilon), nil
}

// PrivateMean returns an epsilon-DP mean of values clamped to [lo, hi].
// The sensitivity of a clamped mean over n values is (hi-lo)/n.
func PrivateMean(rng *rand.Rand, values []float64, lo, hi, epsilon float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("privacy: non-positive epsilon")
	}
	if hi <= lo {
		return 0, fmt.Errorf("privacy: empty clamp range [%v, %v]", lo, hi)
	}
	if len(values) == 0 {
		return 0, fmt.Errorf("privacy: no values")
	}
	var sum float64
	for _, v := range values {
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		sum += v
	}
	mean := sum / float64(len(values))
	sens := (hi - lo) / float64(len(values))
	return mean + Laplace(rng, sens/epsilon), nil
}

// PrivateHistogram returns an epsilon-DP histogram over the given keys
// (parallel composition: each bin gets Laplace(1/epsilon) noise).
func PrivateHistogram(rng *rand.Rand, counts map[string]int, epsilon float64) (map[string]float64, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("privacy: non-positive epsilon")
	}
	out := make(map[string]float64, len(counts))
	for k, c := range counts {
		out[k] = float64(c) + Laplace(rng, 1/epsilon)
	}
	return out, nil
}
