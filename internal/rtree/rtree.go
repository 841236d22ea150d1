// Package rtree implements RStar, the paper's spatial index for
// BuildCandidates (model.IndexRTree; the round paths query a grid): a
// static R-tree packed by Sort-Tile-Recursive (STR) bulk loading into a
// flat-slice node arena, answering circular range queries (worker working
// areas).
//
// The batch-based framework of the paper (§III, Algorithm 1 lines 4-5)
// retrieves the valid tasks of each worker with "a range query with a range
// of r_i and a center at the current location l_i" over a spatial index
// "(e.g., R-Tree [24])". This package is that index. Every round rebuilds
// it from the live task set, so it needs no insertion or deletion.
package rtree

import "casc/internal/geo"

// Item is an entry stored in the tree: a point plus an opaque integer ID
// chosen by the caller (e.g. a task index).
type Item struct {
	Loc geo.Point
	ID  int
}

// DefaultMaxEntries is the default node fan-out M.
const DefaultMaxEntries = 16
