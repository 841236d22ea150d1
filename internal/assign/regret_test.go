package assign

import (
	"context"
	"math/rand"
	"testing"
)

func TestGTHasZeroRegret(t *testing.T) {
	// The paper's fairness claim, operationalized: a converged GT
	// assignment leaves no worker with a profitable unilateral deviation.
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 60, 20, 3)
		a, err := NewGT(GTOptions{}).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		s := SummarizeRegret(Regret(in, a))
		if s.Max > 1e-9 {
			t.Errorf("trial %d: GT equilibrium has max regret %v (workers: %d)",
				trial, s.Max, s.Workers)
		}
	}
}

func TestTPGLeavesRegret(t *testing.T) {
	// ... while TPG, being centrally greedy, generally leaves some workers
	// wishing they had chosen differently. Aggregated over instances the
	// effect must show (a single instance might coincidentally be stable).
	r := rand.New(rand.NewSource(82))
	totalWorkersWithRegret := 0
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(r, 60, 20, 3)
		a, err := NewTPG().Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		s := SummarizeRegret(Regret(in, a))
		totalWorkersWithRegret += s.Workers
	}
	if totalWorkersWithRegret == 0 {
		t.Error("TPG produced zero-regret assignments on all 8 instances; " +
			"either miraculous or Regret is broken")
	}
}

func TestRandHasMoreRegretThanTPG(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	var tpgTotal, randTotal float64
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(r, 60, 20, 3)
		aT, _ := NewTPG().Solve(context.Background(), in)
		aR, _ := NewRandom(int64(trial)).Solve(context.Background(), in)
		tpgTotal += SummarizeRegret(Regret(in, aT)).Total
		randTotal += SummarizeRegret(Regret(in, aR)).Total
	}
	if randTotal <= tpgTotal {
		t.Errorf("RAND total regret %v not above TPG %v", randTotal, tpgTotal)
	}
}

func TestSummarizeRegretEdgeCases(t *testing.T) {
	s := SummarizeRegret(nil)
	if s.Workers != 0 || s.Max != 0 || s.P95 != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	s = SummarizeRegret([]float64{0, 0, 0.5, 0.1})
	if s.Workers != 2 || s.Max != 0.5 || s.Total != 0.6 {
		t.Errorf("summary: %+v", s)
	}
}
