package model

import (
	"fmt"
	"sort"
)

// SubIndex maps a sub-instance produced by Instance.SubInstance back to its
// parent: position i of the sub-instance corresponds to parent position
// WorkerIDs[i] (and likewise for tasks). Both slices are ascending, so the
// relative order of workers and tasks — and therefore every index-order
// tie-break inside the solvers — is preserved by the remapping.
type SubIndex struct {
	WorkerIDs []int
	TaskIDs   []int
}

// Lift copies every pair of sub, an assignment over the sub-instance, into
// dst, an assignment over the parent instance, translating indices through
// the mapping. It walks TaskWorkers rather than WorkerTask so each lifted
// group keeps the exact member order the solver committed — group quality
// is summed in member order, so preserving it keeps decomposed scores
// bitwise identical to monolithic ones. It panics (via Assignment.Assign)
// if a lifted worker is already assigned in dst, which can only happen
// when two sub-instances share a worker — i.e. when the decomposition was
// not a partition.
func (m *SubIndex) Lift(sub, dst *Assignment) {
	for t, ws := range sub.TaskWorkers {
		for _, w := range ws {
			dst.Assign(m.WorkerIDs[w], m.TaskIDs[t])
		}
	}
}

// SubInstance extracts the sub-problem induced by the given parent worker
// and task positions: a dense instance over copies of those workers and
// tasks with candidate lists sliced to pairs inside the selection, the
// quality model re-indexed by a Subset, and B, Now and Travel carried
// over. The input index sets may be in any order and are canonicalised
// ascending; the returned SubIndex lifts sub-assignments back to the parent.
//
// Candidates must have been built on the parent (BuildCandidates); the
// sub-instance's lists are derived from the parent's rather than recomputed,
// so the (possibly expensive, possibly stateful) Travel function is never
// re-invoked. A candidate pair whose other endpoint is outside the selection
// is dropped — callers partitioning along connected components never lose a
// pair this way, and then the sub-instance shares the parent's task blocks;
// a selection that drops a pair gets none.
func (in *Instance) SubInstance(workerIDs, taskIDs []int) (*Instance, *SubIndex) {
	if in.WorkerCand == nil {
		panic("model: SubInstance before BuildCandidates")
	}
	wIDs := append([]int(nil), workerIDs...)
	tIDs := append([]int(nil), taskIDs...)
	sort.Ints(wIDs)
	sort.Ints(tIDs)
	checkSelection("task", tIDs, len(in.Tasks))
	checkSelection("worker", wIDs, len(in.Workers))

	sub := &Instance{
		Workers:    make([]Worker, len(wIDs)),
		Tasks:      make([]Task, len(tIDs)),
		Quality:    NewSubset(in.Quality, wIDs),
		B:          in.B,
		Now:        in.Now,
		Travel:     in.Travel,
		WorkerCand: make([][]int, len(wIDs)),
		TaskCand:   make([][]int, len(tIDs)),
	}
	for j, t := range tIDs {
		sub.Tasks[j] = in.Tasks[t]
	}
	// Every worker list is carved from one backing slice, sized by the
	// parent lists it filters; taskDeg counts each sub task's candidates
	// so the task lists can be carved from a second one below.
	n, nT := 0, 0
	for _, w := range wIDs {
		n += len(in.WorkerCand[w])
	}
	for _, t := range tIDs {
		nT += len(in.TaskCand[t])
	}
	wBack := make([]int, 0, n)
	taskDeg := make([]int, len(tIDs)+1)
	for i, w := range wIDs {
		sub.Workers[i] = in.Workers[w]
		start := len(wBack)
		// Parent lists and tIDs are both ascending, so each match is
		// searched for only past the previous one, and the sub lists come
		// out ascending too.
		lo := 0
		for _, t := range in.WorkerCand[w] {
			j := lo
			if j < len(tIDs) && tIDs[j] != t {
				j += sort.SearchInts(tIDs[lo:], t)
			}
			if j == len(tIDs) {
				break
			}
			if tIDs[j] == t {
				wBack = append(wBack, j)
				taskDeg[j+1]++
				j++
			}
			lo = j
		}
		sub.WorkerCand[i] = wBack[start:len(wBack):len(wBack)]
	}
	// taskDeg becomes each task list's offset; TaskCand inherits worker
	// order the same way BuildCandidates emits it.
	for j := range tIDs {
		taskDeg[j+1] += taskDeg[j]
	}
	tBack := make([]int, len(wBack))
	for j := range tIDs {
		sub.TaskCand[j] = tBack[taskDeg[j]:taskDeg[j]:taskDeg[j+1]]
	}
	for i, cand := range sub.WorkerCand {
		for _, j := range cand {
			sub.TaskCand[j] = append(sub.TaskCand[j], i)
		}
	}
	if in.Blocks != nil && len(wBack) == n && len(wBack) == nT {
		// Each sub task's list is its parent task's, over the same
		// workers in the same order, so its block starts where it did.
		b := &TaskBlocks{q: in.Blocks.q, start: make([]int, len(tIDs)), pos: make([][]int, len(wIDs))}
		for j, t := range tIDs {
			b.start[j] = in.Blocks.start[t]
		}
		for i, w := range wIDs {
			b.pos[i] = in.Blocks.pos[w]
		}
		sub.Blocks = b
	}
	return sub, &SubIndex{WorkerIDs: wIDs, TaskIDs: tIDs}
}

// checkSelection panics unless the ascending positions ids are in [0, n)
// and distinct.
func checkSelection(kind string, ids []int, n int) {
	for k, x := range ids {
		if x < 0 || x >= n {
			panic(fmt.Sprintf("model: SubInstance %s index %d out of range [0,%d)", kind, x, n))
		}
		if k > 0 && ids[k-1] == x {
			panic(fmt.Sprintf("model: SubInstance duplicate %s index %d", kind, x))
		}
	}
}
