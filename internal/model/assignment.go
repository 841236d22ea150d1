package model

import (
	"fmt"
	"sort"
	"sync"
)

// Assignment is a set of valid worker-and-task pairs satisfying the CA-SC
// constraints (Definition 4): each worker serves at most one task and each
// task holds at most a_j workers.
type Assignment struct {
	// WorkerTask[w] is the task index worker w serves, or Unassigned.
	WorkerTask []int
	// TaskWorkers[t] lists the worker indices assigned to task t.
	TaskWorkers [][]int
}

// Unassigned marks a worker with no task.
const Unassigned = -1

// NewAssignment returns an empty assignment for the instance.
func NewAssignment(in *Instance) *Assignment {
	a := &Assignment{
		WorkerTask:  make([]int, len(in.Workers)),
		TaskWorkers: make([][]int, len(in.Tasks)),
	}
	for i := range a.WorkerTask {
		a.WorkerTask[i] = Unassigned
	}
	return a
}

// Reset empties the assignment for reuse over in, keeping the capacity of
// both the header slices and the per-task worker lists. It is the
// allocation-free counterpart of NewAssignment for callers (the solver
// scratch arena) that recycle one Assignment across solves; the only
// observable difference is that previously-used task lists come back as
// zero-length slices rather than nil, which no consumer distinguishes.
func (a *Assignment) Reset(in *Instance) {
	if cap(a.WorkerTask) < len(in.Workers) {
		a.WorkerTask = make([]int, len(in.Workers))
	}
	a.WorkerTask = a.WorkerTask[:len(in.Workers)]
	for i := range a.WorkerTask {
		a.WorkerTask[i] = Unassigned
	}
	if cap(a.TaskWorkers) < len(in.Tasks) {
		grown := make([][]int, len(in.Tasks))
		copy(grown, a.TaskWorkers)
		a.TaskWorkers = grown
	}
	a.TaskWorkers = a.TaskWorkers[:len(in.Tasks)]
	for t := range a.TaskWorkers {
		a.TaskWorkers[t] = a.TaskWorkers[t][:0]
	}
}

// Assign pairs worker w with task t. It panics if w is already assigned —
// use Move to change tasks.
func (a *Assignment) Assign(w, t int) {
	if a.WorkerTask[w] != Unassigned {
		panic(fmt.Sprintf("model: worker %d already assigned to task %d", w, a.WorkerTask[w]))
	}
	a.WorkerTask[w] = t
	a.TaskWorkers[t] = append(a.TaskWorkers[t], w)
}

// Unassign removes worker w from its task, if any.
func (a *Assignment) Unassign(w int) {
	t := a.WorkerTask[w]
	if t == Unassigned {
		return
	}
	a.WorkerTask[w] = Unassigned
	ws := a.TaskWorkers[t]
	for i, x := range ws {
		if x == w {
			ws[i] = ws[len(ws)-1]
			a.TaskWorkers[t] = ws[:len(ws)-1]
			return
		}
	}
	panic(fmt.Sprintf("model: assignment inconsistent for worker %d", w))
}

// Move reassigns worker w to task t (Unassign + Assign).
func (a *Assignment) Move(w, t int) {
	a.Unassign(w)
	a.Assign(w, t)
}

// TaskOf returns the task of worker w, or Unassigned.
func (a *Assignment) TaskOf(w int) int { return a.WorkerTask[w] }

// NumAssigned returns the number of workers with a task.
func (a *Assignment) NumAssigned() int {
	n := 0
	for _, t := range a.WorkerTask {
		if t != Unassigned {
			n++
		}
	}
	return n
}

// Pair is one ⟨worker, task⟩ element of an assignment.
type Pair struct {
	Worker, Task int
}

// Pairs returns the assignment as a sorted pair list.
func (a *Assignment) Pairs() []Pair {
	var ps []Pair
	for w, t := range a.WorkerTask {
		if t != Unassigned {
			ps = append(ps, Pair{Worker: w, Task: t})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Task != ps[j].Task {
			return ps[i].Task < ps[j].Task
		}
		return ps[i].Worker < ps[j].Worker
	})
	return ps
}

// DispatchedPairs returns what a round dispatches: the pairs of every group
// reaching in.B by external ID, in task order and member order.
func (a *Assignment) DispatchedPairs(in *Instance) []Pair {
	var ps []Pair
	for t, ws := range a.TaskWorkers {
		if len(ws) < in.B {
			continue
		}
		for _, w := range ws {
			ps = append(ps, Pair{Worker: in.Workers[w].ID, Task: in.Tasks[t].ID})
		}
	}
	return ps
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		WorkerTask:  append([]int(nil), a.WorkerTask...),
		TaskWorkers: make([][]int, len(a.TaskWorkers)),
	}
	for t, ws := range a.TaskWorkers {
		c.TaskWorkers[t] = append([]int(nil), ws...)
	}
	return c
}

// TotalScore computes the overall cooperation quality revenue Q(T) of
// Equation 3: Σ_j Q(W_j), with Q(W_j) = 0 for tasks holding fewer than B
// workers. It reads the task blocks when in carries them.
func (a *Assignment) TotalScore(in *Instance) float64 {
	var total float64
	for t, ws := range a.TaskWorkers {
		total += in.TaskQuality(t, ws)
	}
	return total
}

// CompletedTasks returns the number of tasks with at least B workers.
func (a *Assignment) CompletedTasks(in *Instance) int {
	n := 0
	for _, ws := range a.TaskWorkers {
		if len(ws) >= in.B {
			n++
		}
	}
	return n
}

// validateMarks recycles Validate's worker marks across calls.
var validateMarks = sync.Pool{New: func() any { return new([]uint64) }}

// Validate verifies every CA-SC constraint of Definition 4 against the
// instance: consistency of the two redundant maps, validity of every pair
// (working area + deadline), and the capacity bound. It returns the first
// violation found. Each TaskWorkers entry must agree with WorkerTask, and a
// mark per worker catches a second entry of the same worker; then every
// worker WorkerTask assigns must have been marked.
func (a *Assignment) Validate(in *Instance) error {
	nW := len(in.Workers)
	if len(a.WorkerTask) != nW || len(a.TaskWorkers) != len(in.Tasks) {
		return fmt.Errorf("model: assignment shape mismatch")
	}
	mp := validateMarks.Get().(*[]uint64)
	defer validateMarks.Put(mp)
	words := (nW + 63) / 64
	if cap(*mp) < words {
		*mp = make([]uint64, words)
	}
	seen := (*mp)[:words]
	clear(seen)
	for t, ws := range a.TaskWorkers {
		if len(ws) > in.Tasks[t].Capacity {
			return fmt.Errorf("model: task %d holds %d workers, capacity %d", t, len(ws), in.Tasks[t].Capacity)
		}
		for _, w := range ws {
			if w < 0 || w >= nW {
				return fmt.Errorf("model: task %d lists worker %d of %d", t, w, nW)
			}
			bit := uint64(1) << (w % 64)
			if seen[w/64]&bit != 0 {
				// The first entry agreed with WorkerTask[w].
				if prev := a.WorkerTask[w]; prev != t {
					return fmt.Errorf("model: worker %d in tasks %d and %d", w, prev, t)
				}
				return fmt.Errorf("model: worker %d twice in task %d", w, t)
			}
			switch a.WorkerTask[w] {
			case t:
			case Unassigned:
				return fmt.Errorf("model: worker %d in TaskWorkers but marked unassigned", w)
			default:
				return fmt.Errorf("model: worker %d maps to task %d but TaskWorkers says %d", w, a.WorkerTask[w], t)
			}
			seen[w/64] |= bit
			if !ValidTravel(in.Workers[w], in.Tasks[t], in.Now, in.Travel) {
				return fmt.Errorf("model: invalid pair ⟨w%d, t%d⟩", w, t)
			}
		}
	}
	for w, t := range a.WorkerTask {
		if t != Unassigned && seen[w/64]&(uint64(1)<<(w%64)) == 0 {
			return fmt.Errorf("model: worker %d maps to task %d but is absent from TaskWorkers", w, t)
		}
	}
	return nil
}

// String summarizes the assignment for logs: pair count, completed tasks,
// and the first few pairs.
func (a *Assignment) String() string {
	pairs := a.Pairs()
	s := fmt.Sprintf("Assignment{%d pairs", len(pairs))
	for i, p := range pairs {
		if i == 6 {
			s += fmt.Sprintf(" …(+%d)", len(pairs)-6)
			break
		}
		s += fmt.Sprintf(" w%d→t%d", p.Worker, p.Task)
	}
	return s + "}"
}
