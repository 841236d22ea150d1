package model

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
)

// paperInstance draws nW workers and nT tasks with Table II's speeds
// ([1,5]% of the space), radii ([5,10]%), capacity 5 and τ = 3: the shape
// of one serving-tier or stream round.
func paperInstance(seed int64, nW, nT int) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Quality: coop.Synthetic{N: nW, Seed: 9}, B: 3, Now: 1}
	for i := 0; i < nW; i++ {
		in.Workers = append(in.Workers, Worker{
			ID:     i,
			Loc:    geo.Pt(r.Float64(), r.Float64()),
			Speed:  0.01 + 0.04*r.Float64(),
			Radius: 0.05 + 0.05*r.Float64(),
		})
	}
	for j := 0; j < nT; j++ {
		in.Tasks = append(in.Tasks, Task{
			ID:       j,
			Loc:      geo.Pt(r.Float64(), r.Float64()),
			Capacity: 5,
			Deadline: in.Now + 1 + 2*r.Float64(),
		})
	}
	return in
}

// TestCandidateListsDoNotAlias appends to each WorkerCand and TaskCand
// list in turn and checks that every other list keeps its contents: the
// lists share two flat arrays, so a window whose capacity reached into its
// neighbour would be overwritten.
func TestCandidateListsDoNotAlias(t *testing.T) {
	for _, kind := range []IndexKind{IndexRTree, IndexGrid, IndexLinear} {
		in := paperInstance(5, 300, 60)
		in.BuildCandidates(kind)
		lists := append(slices.Clone(in.WorkerCand), in.TaskCand...)
		want := make([][]int, len(lists))
		for i, l := range lists {
			want[i] = slices.Clone(l)
		}
		if in.NumValidPairs() == 0 {
			t.Fatalf("%v: no valid pairs", kind)
		}
		for i := range lists {
			_ = append(lists[i], -1, -2, -3)
			for k, l := range lists {
				if !slices.Equal(l, want[k]) {
					t.Fatalf("%v: appending to list %d changed list %d: %v, want %v", kind, i, k, l, want[k])
				}
			}
		}
	}
}

// TestGridBuildAllocatesNoList checks that a grid build over the same
// tasks makes at most 16 more allocations for 5 000 workers than for 500,
// the growth steps of the worker-side array: an allocation per list would
// add thousands.
func TestGridBuildAllocatesNoList(t *testing.T) {
	tasks := paperInstance(6, 0, 160).Tasks
	allocs := func(nW int) float64 {
		in := paperInstance(7, nW, 0)
		in.Tasks = tasks
		return testing.AllocsPerRun(20, func() { in.BuildCandidates(IndexGrid) })
	}
	small, large := allocs(500), allocs(5000)
	if large > small+16 {
		t.Fatalf("grid build: %v allocations at 500 workers, %v at 5 000", small, large)
	}
}

// BenchmarkBuildCandidates builds one round's lists at serve-http's shape
// (1 300 workers × 160 tasks) and stream-scratch's (2 520 × 125) with each
// index, and reports the valid pairs the build admits.
func BenchmarkBuildCandidates(b *testing.B) {
	for _, shape := range []struct {
		name   string
		nW, nT int
	}{{"serve-http", 1300, 160}, {"stream-scratch", 2520, 125}} {
		for _, kind := range []IndexKind{IndexRTree, IndexGrid, IndexLinear} {
			b.Run(fmt.Sprintf("%s/%v", shape.name, kind), func(b *testing.B) {
				in := paperInstance(1, shape.nW, shape.nT)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in.BuildCandidates(kind)
				}
				b.ReportMetric(float64(in.NumValidPairs()), "pairs")
			})
		}
	}
}
