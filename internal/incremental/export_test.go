package incremental

import (
	"reflect"
	"sort"
)

// BlockCap is the most workers a component may have for Solve to give it
// a dense quality block.
const BlockCap = blockCap

// Work is the work of an engine's last BeginRound and Plan.
type Work struct {
	// Edges counts the edges BeginRound examined.
	Edges int
	// Workers and Tasks count the positions Plan rewrote; Lists counts the
	// candidate lists it rewrote.
	Workers, Tasks, Lists int
}

// RoundWork returns the work of e's last BeginRound and Plan.
func RoundWork(e *Engine) Work {
	return Work{Edges: e.work.edges, Workers: e.work.workers, Tasks: e.work.tasks, Lists: e.work.lists}
}

// MaxRadius returns the radius of AddTask's worker-grid query.
func MaxRadius(e *Engine) float64 { return e.maxRadius }

// GridHits returns the number of points the last grid query returned
// (after AddTask: the workers within MaxRadius of the task).
func GridHits(e *Engine) int { return len(e.searchBuf) }

// WarmIDs returns the task external IDs held in the engine's warm cache,
// ascending (nil without Carry). assign.Warm exposes no key listing, so the
// keys are read from its unexported tasks map by reflection.
func WarmIDs(e *Engine) []int {
	if e.warm == nil {
		return nil
	}
	keys := reflect.ValueOf(e.warm).Elem().FieldByName("tasks").MapKeys()
	ids := make([]int, len(keys))
	for i, k := range keys {
		ids[i] = int(k.Int())
	}
	sort.Ints(ids)
	return ids
}

// OraclePrunedIDs returns the subset of ids that the engine's former warm
// prune, Prune(taskIDLive), keeps given the engine's current live tasks.
// Called with the cache's IDs from before a Commit, it gives the key set
// that Commit must leave. prune and taskIDLive are the former code.
func OraclePrunedIDs(e *Engine, ids []int) []int {
	w := &oracleWarm{tasks: make(map[int]struct{}, len(ids))}
	for _, id := range ids {
		w.tasks[id] = struct{}{}
	}
	w.Prune(func(id int) bool { return oracleTaskIDLive(e, id) })
	kept := make([]int, 0, len(w.tasks))
	for id := range w.tasks {
		kept = append(kept, id)
	}
	sort.Ints(kept)
	return kept
}

type oracleWarm struct{ tasks map[int]struct{} }

// Prune drops entries whose task external ID is no longer live.
func (w *oracleWarm) Prune(live func(taskID int) bool) {
	for id := range w.tasks {
		if !live(id) {
			delete(w.tasks, id)
		}
	}
}

// taskIDLive reports whether any live task carries the external ID.
func oracleTaskIDLive(e *Engine, id int) bool {
	for _, ts := range e.tasks {
		if ts.t.ID == id {
			return true
		}
	}
	return false
}
