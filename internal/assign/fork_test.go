package assign

import (
	"context"
	"math/rand"
	"testing"

	"casc/internal/metrics"
)

// TestComponentSeedPure: the derivation is a pure function of the parent
// seed and the component key, and distinct keys get distinct seeds.
func TestComponentSeedPure(t *testing.T) {
	if ComponentSeed(42, 3) != ComponentSeed(42, 3) || ComponentSeed(42, 3) == ComponentSeed(42, 4) {
		t.Fatal("ComponentSeed not a pure injective-ish derivation")
	}
}

// TestInstrumentKeepsForkAndArena pins the method set Instrument exposes:
// exactly the inner solver's Forker-ness, with ArenaHolder alongside it,
// and forks that stay instrumented and take the arena they are handed.
func TestInstrumentKeepsForkAndArena(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, ok := Instrument(NewLocalSearch(NewTPG()), reg).(Forker); ok {
		t.Fatal("instrumented LocalSearch claims to fork; forking it would panic")
	}
	s := Instrument(NewGT(GTOptions{LUB: true}), reg)
	f, ok := s.(Forker)
	if !ok {
		t.Fatal("instrumented GT hides Fork")
	}
	if _, ok := s.(ArenaHolder); !ok {
		t.Fatal("instrumented GT hides SetArena")
	}
	fork := f.Fork(7)
	h, ok := fork.(ArenaHolder)
	if !ok {
		t.Fatal("fork of instrumented GT hides SetArena")
	}
	ar := NewArena()
	h.SetArena(ar)
	r := rand.New(rand.NewSource(44))
	in := randomInstance(r, 40, 12, 3)
	if _, err := fork.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if !ar.used {
		t.Fatal("fork did not solve on the arena it was handed")
	}
	if n, _ := reg.Snapshot().Counter(MetricSolves, metrics.L("solver", "GT+LUB")); n != 1 {
		t.Fatalf("fork recorded %v solves, want 1", n)
	}
}
