package incremental

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
