// Package shard partitions the CA-SC platform into K spatial shards, each
// owning its own worker/task registries and metric namespace over one
// shared cooperation history, fronted by a pluggable Router and
// token-bucket admission control. Batch rounds stay globally coordinated: every round gathers one
// world-wide instance, decomposes it into the connected components of its
// validity graph (package partition), pins each component to the shard that
// owns its lowest cell — components crossing a boundary are "border"
// components and ride the ghost/handoff protocol — and lets every shard
// solve its pinned region concurrently. Because the paper's objective is
// additive over components and the solvers are decomposition-invariant for
// their deterministic family (TPG, GT, GT+LUB, EXACT), a 1-shard run is
// bitwise-equal to an N-shard run on the same seed, while the per-shard
// solves dodge the monolithic superlinear costs (TPG's stage-one task scan,
// GT's full-population round sweeps).
package shard

import (
	"fmt"

	"casc/internal/geo"
)

// DefaultResolution is the per-axis cell resolution of the shard geometry:
// the unit square is cut into Resolution x Resolution cells addressed
// row-major (y*Resolution + x), the same clamped addressing scheme as
// internal/grid. 64 gives 4096 cells — fine-grained enough that contiguous
// cell ranges split the world evenly for any practical K.
const DefaultResolution = 64

// Geometry maps locations to cells and cells to owning shards. Shard s owns
// the contiguous cell range [s*C/K, (s+1)*C/K) where C = Resolution^2; with
// row-major cell numbering the shards are horizontal bands of the unit
// square. The mapping is pure arithmetic, so every node of a deployment
// agrees on ownership without coordination.
type Geometry struct {
	Resolution int
	K          int
}

// NewGeometry returns a Geometry with K shards at the given per-axis
// resolution (0 selects DefaultResolution). K must be at least 1 and no
// larger than the cell count.
func NewGeometry(resolution, k int) (Geometry, error) {
	if resolution <= 0 {
		resolution = DefaultResolution
	}
	if k < 1 {
		return Geometry{}, fmt.Errorf("shard: K = %d, want >= 1", k)
	}
	if cells := resolution * resolution; k > cells {
		return Geometry{}, fmt.Errorf("shard: K = %d exceeds %d cells", k, cells)
	}
	return Geometry{Resolution: resolution, K: k}, nil
}

// Cells returns the total cell count.
func (g Geometry) Cells() int { return g.Resolution * g.Resolution }

// CellOf returns the row-major cell index of p. Points outside the unit
// square are clamped into it, mirroring internal/grid cell addressing.
func (g Geometry) CellOf(p geo.Point) int {
	c := p.Clamp(0, 1)
	x := int(c.X * float64(g.Resolution))
	y := int(c.Y * float64(g.Resolution))
	if x == g.Resolution {
		x--
	}
	if y == g.Resolution {
		y--
	}
	return y*g.Resolution + x
}

// ShardOfCell returns the shard owning the given cell.
func (g Geometry) ShardOfCell(cell int) int {
	return cell * g.K / g.Cells()
}

// ShardOf returns the shard owning the cell containing p.
func (g Geometry) ShardOf(p geo.Point) int { return g.ShardOfCell(g.CellOf(p)) }
