package model

import (
	"math/rand"
	"sort"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
)

// randomSubInstance builds a well-connected random batch for the
// SubInstance tests (a local twin of the assign package's helper — model
// cannot import assign).
func randomSubInstance(r *rand.Rand, nW, nT, b int) *Instance {
	in := &Instance{
		Quality: coop.Synthetic{N: nW, Seed: uint64(r.Int63())},
		B:       b,
	}
	for i := 0; i < nW; i++ {
		in.Workers = append(in.Workers, Worker{
			ID:     i,
			Loc:    geo.Pt(r.Float64(), r.Float64()),
			Speed:  0.02 + r.Float64()*0.08,
			Radius: 0.1 + r.Float64()*0.2,
		})
	}
	for j := 0; j < nT; j++ {
		in.Tasks = append(in.Tasks, Task{
			ID:       j,
			Loc:      geo.Pt(r.Float64(), r.Float64()),
			Capacity: b + r.Intn(3),
			Deadline: 2 + r.Float64()*3,
		})
	}
	in.BuildCandidates(IndexLinear)
	return in
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestSubInstanceRemap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := randomSubInstance(r, 30, 12, 2)
	// Deliberately unsorted selections: SubInstance canonicalises.
	wIDs := []int{17, 3, 25, 8, 0, 11, 29, 5}
	tIDs := []int{9, 1, 4, 11, 0}
	sub, m := in.SubInstance(wIDs, tIDs)

	if err := sub.Validate(); err != nil {
		t.Fatalf("sub.Validate: %v", err)
	}
	if !sort.IntsAreSorted(m.WorkerIDs) || !sort.IntsAreSorted(m.TaskIDs) {
		t.Fatalf("mapping not ascending: %v / %v", m.WorkerIDs, m.TaskIDs)
	}
	if len(m.WorkerIDs) != len(wIDs) || len(m.TaskIDs) != len(tIDs) {
		t.Fatalf("mapping sizes %d/%d, want %d/%d", len(m.WorkerIDs), len(m.TaskIDs), len(wIDs), len(tIDs))
	}
	if sub.B != in.B || sub.Now != in.Now {
		t.Errorf("B/Now not carried over")
	}
	for i, pw := range m.WorkerIDs {
		if sub.Workers[i].ID != in.Workers[pw].ID {
			t.Errorf("sub worker %d is parent %d, want parent %d", i, sub.Workers[i].ID, in.Workers[pw].ID)
		}
		var want []int
		for _, pt := range in.WorkerCand[pw] {
			if j := indexOf(m.TaskIDs, pt); j >= 0 {
				want = append(want, j)
			}
		}
		got := sub.WorkerCand[i]
		if len(got) != len(want) {
			t.Fatalf("worker %d candidates %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("worker %d candidates %v, want %v", i, got, want)
			}
		}
	}
	// TaskCand is the exact transpose of WorkerCand, ascending.
	for j, cand := range sub.TaskCand {
		if !sort.IntsAreSorted(cand) {
			t.Errorf("task %d candidate workers %v not ascending", j, cand)
		}
		for _, i := range cand {
			if indexOf(sub.WorkerCand[i], j) < 0 {
				t.Errorf("task %d lists worker %d but not vice versa", j, i)
			}
		}
	}
	// Quality is the parent's, re-indexed.
	for i := range m.WorkerIDs {
		for k := range m.WorkerIDs {
			got := sub.Quality.Quality(i, k)
			want := in.Quality.Quality(m.WorkerIDs[i], m.WorkerIDs[k])
			if got != want {
				t.Fatalf("Quality(%d,%d) = %v, want parent's %v", i, k, got, want)
			}
		}
	}
}

func TestSubInstanceLift(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	in := randomSubInstance(r, 24, 10, 2)
	sub, m := in.SubInstance([]int{2, 5, 7, 9, 13, 18, 21}, []int{0, 3, 6, 8})

	// Greedily fill the sub-assignment, then lift it onto the parent.
	sa := NewAssignment(sub)
	left := make([]int, len(sub.Tasks))
	for j, task := range sub.Tasks {
		left[j] = task.Capacity
	}
	for w, cand := range sub.WorkerCand {
		for _, j := range cand {
			if left[j] > 0 {
				sa.Assign(w, j)
				left[j]--
				break
			}
		}
	}
	pa := NewAssignment(in)
	m.Lift(sa, pa)
	if err := pa.Validate(in); err != nil {
		t.Fatalf("lifted assignment invalid: %v", err)
	}
	if pa.NumAssigned() != sa.NumAssigned() {
		t.Fatalf("lift lost pairs: %d, want %d", pa.NumAssigned(), sa.NumAssigned())
	}
	for w, j := range sa.WorkerTask {
		if j == Unassigned {
			continue
		}
		if got := pa.WorkerTask[m.WorkerIDs[w]]; got != m.TaskIDs[j] {
			t.Errorf("parent worker %d assigned task %d, want %d", m.WorkerIDs[w], got, m.TaskIDs[j])
		}
	}
}

func TestSubInstancePanics(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := randomSubInstance(r, 10, 5, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate worker", func() { in.SubInstance([]int{1, 1}, []int{0}) })
	mustPanic("duplicate task", func() { in.SubInstance([]int{1}, []int{0, 0}) })
	mustPanic("worker out of range", func() { in.SubInstance([]int{10}, []int{0}) })
	mustPanic("task out of range", func() { in.SubInstance([]int{0}, []int{5}) })
	bare := &Instance{Workers: in.Workers, Tasks: in.Tasks, Quality: in.Quality, B: in.B}
	mustPanic("no candidates", func() { bare.SubInstance([]int{0}, []int{0}) })
}

// TestSubInstanceBytesIndependentOfParent: extracting a component costs
// memory in proportion to the component, not to the parent. The same
// 3-worker component is selected from a 100-task and a 10 000-task parent.
func TestSubInstanceBytesIndependentOfParent(t *testing.T) {
	parent := func(nT int) *Instance {
		// Workers 0-2 and tasks 0-1 form the component; worker 3 holds
		// every other task.
		in := &Instance{Quality: coop.Synthetic{N: 4, Seed: 1}, B: 2}
		in.Workers = make([]Worker, 4)
		in.Tasks = make([]Task, nT)
		in.WorkerCand = make([][]int, 4)
		in.TaskCand = make([][]int, nT)
		for w := 0; w < 3; w++ {
			in.WorkerCand[w] = []int{0, 1}
		}
		in.TaskCand[0], in.TaskCand[1] = []int{0, 1, 2}, []int{0, 1, 2}
		for j := 2; j < nT; j++ {
			in.WorkerCand[3] = append(in.WorkerCand[3], j)
			in.TaskCand[j] = []int{3}
		}
		return in
	}
	bytes := func(in *Instance) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.SubInstance([]int{2, 0, 1}, []int{1, 0})
			}
		}).AllocedBytesPerOp()
	}
	small, large := bytes(parent(100)), bytes(parent(10_000))
	if small != large {
		t.Fatalf("SubInstance of one component allocates %d B from a 100-task parent and %d B from a 10 000-task parent", small, large)
	}
}
