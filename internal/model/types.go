// Package model defines the CA-SC problem exactly as in §II of the paper:
// cooperation-aware moving workers (Definition 1), spatial tasks
// (Definition 2), valid worker-and-task pairs (Definition 3), the
// cooperation quality revenue Q(W_j) of Equation 2, the overall objective
// Q(T) of Equation 3, and the quality increase ΔQ(w_i, t_j) of Equation 4.
// It also builds the per-worker candidate task sets via a pluggable spatial
// index (Algorithm 1 lines 4-5).
package model

import (
	"fmt"
	"math"

	"casc/internal/geo"
)

// Worker is a cooperation-aware moving worker (Definition 1). Workers are
// addressed by their position in the Instance's slice; ID records a stable
// external identifier for datasets and logs.
type Worker struct {
	ID     int
	Loc    geo.Point // l_i: current location
	Speed  float64   // v_i: moving speed (space units per time unit)
	Radius float64   // r_i: working-area radius
	Arrive float64   // ϕ_i: timestamp the worker came to the system
}

// CheckWorkerInput validates a worker's registration inputs: finite
// coordinates and a finite, non-negative speed and radius. Ordered
// comparisons alone let NaN through, and a non-finite location would reach
// the float-to-int cell conversions of the spatial indexes.
func CheckWorkerInput(loc geo.Point, speed, radius float64) error {
	switch {
	case !finite(loc.X) || !finite(loc.Y):
		return fmt.Errorf("non-finite worker location (%v, %v)", loc.X, loc.Y)
	case !finite(speed) || speed < 0:
		return fmt.Errorf("worker speed %v is not finite and non-negative", speed)
	case !finite(radius) || radius < 0:
		return fmt.Errorf("worker radius %v is not finite and non-negative", radius)
	}
	return nil
}

// CheckTaskInput validates a task's posting inputs: finite coordinates and
// a finite deadline. A NaN deadline would pass an ordered "deadline <= now"
// check and then never expire; the location has the same cell-conversion
// hazard as a worker's. Whether the deadline lies in the future is the
// caller's check, against its own clock.
func CheckTaskInput(loc geo.Point, deadline float64) error {
	switch {
	case !finite(loc.X) || !finite(loc.Y):
		return fmt.Errorf("non-finite task location (%v, %v)", loc.X, loc.Y)
	case !finite(deadline):
		return fmt.Errorf("task deadline %v is not finite", deadline)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Task is a spatial task (Definition 2).
type Task struct {
	ID       int
	Loc      geo.Point // l_j: required location
	Capacity int       // a_j: maximum number of workers
	Created  float64   // ϕ_j: creation timestamp
	Deadline float64   // τ_j: absolute deadline
}

// RemainingTime returns τ_j − now, the slack a worker has to reach the task.
func (t Task) RemainingTime(now float64) float64 { return t.Deadline - now }

// Valid reports whether ⟨w, t⟩ is a valid worker-and-task pair at time now
// (Definition 3): the task was created before the worker is considered, the
// task location lies in the worker's working area, and the worker can reach
// it before the deadline: d(l_i, l_j)/v_i ≤ τ_j − now.
func Valid(w Worker, t Task, now float64) bool {
	return ValidTravel(w, t, now, nil)
}

// TravelFunc returns the travel time for a worker to reach a task; it
// replaces the default Euclidean d(l_i,l_j)/v_i when a more realistic
// movement model (e.g. a road network, see package roadnet) is in play.
// Implementations must be ≥ the Euclidean time divided by any speed-up the
// network could offer — in this repository they are always ≥ Euclidean,
// since roads only detour.
type TravelFunc func(w Worker, t Task) float64

// ValidTravel is Valid with a custom travel-time model (nil falls back to
// Euclidean). The working-area constraint stays Euclidean — it models the
// worker's *preference* disc, not reachability.
func ValidTravel(w Worker, t Task, now float64, travel TravelFunc) bool {
	if t.Created > now || w.Arrive > now {
		return false
	}
	slack := t.Deadline - now
	if slack < 0 {
		return false
	}
	// One Hypot serves the disc test and the travel time: it is symmetric
	// to the bit, so it is the distance InDisc takes either way round.
	d, in := geo.DistInDisc(t.Loc, w.Loc, w.Radius)
	if !in {
		return false
	}
	if travel == nil {
		return geo.TravelTimeAt(d, w.Speed) <= slack
	}
	return travel(w, t) <= slack
}

// Instance is one batch of the CA-SC problem: the available workers and
// tasks at timestamp Now, their pairwise cooperation qualities, and the
// minimum group size B. Candidate sets are built by BuildCandidates.
type Instance struct {
	Workers []Worker
	Tasks   []Task
	// Quality yields q_i(w_k) by worker slice positions.
	Quality QualityModel
	// B is the least number of workers required to finish any task.
	B int
	// Now is the batch timestamp ϕ.
	Now float64

	// Travel optionally overrides the Euclidean travel-time model used for
	// the deadline-reachability check of Definition 3 (nil: Euclidean).
	Travel TravelFunc

	// WorkerCand[w] lists the indices of tasks valid for worker w,
	// ascending. TaskCand[t] is the reverse mapping. Both are populated by
	// BuildCandidates.
	WorkerCand [][]int
	TaskCand   [][]int

	// Blocks optionally holds the candidate-pair qualities of the tasks
	// FillBlocks gave a block; nil reads every quality from Quality.
	Blocks *TaskBlocks
}

// QualityModel mirrors coop.Model; it is re-declared here so model does not
// import coop (keeping the dependency graph acyclic: coop and model are both
// leaves, assign composes them).
type QualityModel interface {
	Quality(i, k int) float64
	NumWorkers() int
}

// BlockModel is a QualityModel that reads many pairs in one call. For the
// n = len(ids) strictly ascending workers ids, QualityBlock sets
// dst[a·n+b] to Quality(ids[a], ids[b]) with its exact bits, for every
// ordered pair, the diagonal included; dst holds at least n² entries.
// FillBlocks makes one such call per task when its model has the method.
type BlockModel interface {
	QualityModel
	QualityBlock(ids []int, dst []float64)
}

// Validate checks structural sanity of the instance: positive B, capacities
// ≥ B would be required for a task to ever complete but capacities ≥ 1 are
// accepted (such tasks simply can't be finished), non-negative speeds and
// radii, and a quality model covering all workers.
func (in *Instance) Validate() error {
	if in.B < 1 {
		return fmt.Errorf("model: B = %d, want ≥ 1", in.B)
	}
	if in.Quality == nil {
		return fmt.Errorf("model: nil quality model")
	}
	if n := in.Quality.NumWorkers(); n < len(in.Workers) {
		return fmt.Errorf("model: quality model covers %d workers, instance has %d", n, len(in.Workers))
	}
	for i, w := range in.Workers {
		if w.Speed < 0 || w.Radius < 0 {
			return fmt.Errorf("model: worker %d has negative speed/radius", i)
		}
	}
	for j, t := range in.Tasks {
		if t.Capacity < 1 {
			return fmt.Errorf("model: task %d capacity %d < 1", j, t.Capacity)
		}
	}
	return nil
}

// NumValidPairs returns the total number of valid worker-and-task pairs
// (after BuildCandidates).
func (in *Instance) NumValidPairs() int {
	n := 0
	for _, c := range in.WorkerCand {
		n += len(c)
	}
	return n
}

// CoCandidatePairs returns Σ_t |TaskCand_t|(|TaskCand_t|−1)/2 (after
// BuildCandidates): the worker pairs that share a task, counted once per
// task they share. Every pair a solver or UPPER evaluates shares a task,
// so it bounds the distinct pairs they can ask for, and twice it is what
// TPG's first stage-one sweep evaluates.
func (in *Instance) CoCandidatePairs() int {
	n := 0
	for _, c := range in.TaskCand {
		n += len(c) * (len(c) - 1) / 2
	}
	return n
}

// String implements fmt.Stringer for logs.
func (w Worker) String() string {
	return fmt.Sprintf("Worker{%d @%s v=%.3f r=%.3f}", w.ID, w.Loc, w.Speed, w.Radius)
}

// String implements fmt.Stringer for logs.
func (t Task) String() string {
	return fmt.Sprintf("Task{%d @%s cap=%d due=%.2f}", t.ID, t.Loc, t.Capacity, t.Deadline)
}
