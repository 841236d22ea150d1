package stats

import (
	"math"
	"math/rand"
)

// This file holds the arrival-process samplers behind internal/scenario:
// Poisson counts and Gamma/Weibull interarrival draws. All of them thread
// an explicit *rand.Rand (NewRNG) so scenario event streams are a pure
// function of the spec seed.

// Poisson draws a Poisson-distributed count with mean lambda. For moderate
// rates it uses Knuth's product-of-uniforms method; large rates are split
// recursively (a Poisson(λ) is the sum of independent Poisson(λ/2) draws),
// which keeps the method exact without exp-underflow. Non-positive rates
// yield 0.
func Poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// exp(-745) is below the smallest positive float64; split well before.
	const maxDirect = 500
	n := 0
	for lambda > maxDirect {
		n += Poisson(r, lambda/2)
		lambda /= 2
	}
	limit := math.Exp(-lambda)
	prod := r.Float64()
	for prod > limit {
		n++
		prod *= r.Float64()
	}
	return n
}

// Gamma draws from the Gamma distribution with the given shape k and scale
// θ (mean kθ, variance kθ²) using the Marsaglia–Tsang squeeze method;
// shapes below 1 are boosted via Gamma(k+1)·U^(1/k). Non-positive
// parameters yield 0.
func Gamma(r *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: X ~ Gamma(k+1), then X·U^(1/k) ~ Gamma(k).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return Gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull draws from the Weibull distribution with the given shape k and
// scale λ by inverting the CDF: λ·(−ln U)^(1/k). Mean λ·Γ(1+1/k). Shapes
// below 1 give heavy-tailed interarrivals (bursts separated by long
// silences). Non-positive parameters yield 0.
func Weibull(r *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 { // -ln 0 diverges
		u = r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// RenewalCount counts renewals of the interarrival process `draw` in a
// window of the given length: the number of complete interarrival gaps
// that fit. With unit-mean draws the expected count approaches the window
// length, while the draw's dispersion shapes the count's burstiness —
// sub-exponential shapes (Gamma/Weibull k < 1) cluster arrivals. A
// non-positive draw (degenerate process) aborts the scan to stay finite.
func RenewalCount(window float64, draw func() float64) int {
	n := 0
	t := 0.0
	for {
		d := draw()
		if d <= 0 {
			return n
		}
		t += d
		if t > window {
			return n
		}
		n++
	}
}
