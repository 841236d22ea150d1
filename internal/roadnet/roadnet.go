// Package roadnet provides a road-network movement model for CA-SC
// instances. The paper evaluates with Euclidean ("crow flies") travel, but
// workers in a real city move along streets; the related work it builds on
// (ridesharing [7], [10], [15]) is all road-network based. This package
// builds a perturbed-grid road graph over the unit square, answers
// shortest-path travel times with Dijkstra, and plugs into
// model.Instance.Travel so every solver runs unchanged under realistic
// detours. The extra experiment in TestRoadVsEuclideanShrinksCandidates
// quantifies how road detours thin candidate sets and scores relative to
// the paper's Euclidean setting.
package roadnet

import (
	"container/heap"
	"fmt"
	"math"

	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/stats"
)

// Network is an undirected road graph embedded in the unit square.
type Network struct {
	nodes []geo.Point
	adj   [][]arc
	// rows/cols of the generating grid (0 for custom graphs).
	rows, cols int
}

type arc struct {
	to   int32
	dist float64
}

// GridConfig configures a perturbed-grid road network: a rows × cols
// lattice of intersections jittered by Jitter, with every lattice edge
// present except a DropRate fraction removed at random (dead ends and
// detours). Removal never disconnects the network: candidate edges are
// only dropped when both endpoints keep ≥ 2 other arcs and the graph stays
// connected.
type GridConfig struct {
	Rows, Cols int
	Jitter     float64 // ≤ half the lattice spacing; default 0.15 of spacing
	DropRate   float64 // fraction of edges to attempt to drop
	Seed       int64
}

// DefaultGrid is a 24×24 Manhattan-ish street grid.
func DefaultGrid() GridConfig {
	return GridConfig{Rows: 24, Cols: 24, DropRate: 0.12, Seed: 1}
}

// NewGrid builds a perturbed-grid network.
func NewGrid(cfg GridConfig) (*Network, error) {
	if cfg.Rows < 2 || cfg.Cols < 2 {
		return nil, fmt.Errorf("roadnet: grid %dx%d too small", cfg.Rows, cfg.Cols)
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("roadnet: drop rate %v outside [0,1)", cfg.DropRate)
	}
	r := stats.NewRNG(cfg.Seed)
	n := cfg.Rows * cfg.Cols
	nw := &Network{
		nodes: make([]geo.Point, n),
		adj:   make([][]arc, n),
		rows:  cfg.Rows,
		cols:  cfg.Cols,
	}
	dx := 1.0 / float64(cfg.Cols-1)
	dy := 1.0 / float64(cfg.Rows-1)
	jitter := cfg.Jitter
	if jitter <= 0 {
		jitter = 0.15 * math.Min(dx, dy)
	}
	for row := 0; row < cfg.Rows; row++ {
		for col := 0; col < cfg.Cols; col++ {
			p := geo.Pt(
				float64(col)*dx+(r.Float64()*2-1)*jitter,
				float64(row)*dy+(r.Float64()*2-1)*jitter,
			).Clamp(0, 1)
			nw.nodes[row*cfg.Cols+col] = p
		}
	}
	type edge struct{ a, b int }
	var edges []edge
	id := func(row, col int) int { return row*cfg.Cols + col }
	for row := 0; row < cfg.Rows; row++ {
		for col := 0; col < cfg.Cols; col++ {
			if col+1 < cfg.Cols {
				edges = append(edges, edge{id(row, col), id(row, col+1)})
			}
			if row+1 < cfg.Rows {
				edges = append(edges, edge{id(row, col), id(row+1, col)})
			}
		}
	}
	for _, e := range edges {
		nw.addEdge(e.a, e.b)
	}
	// Drop edges without disconnecting.
	stats.Shuffle(r, edges)
	toDrop := int(float64(len(edges)) * cfg.DropRate)
	for _, e := range edges {
		if toDrop == 0 {
			break
		}
		if len(nw.adj[e.a]) <= 2 || len(nw.adj[e.b]) <= 2 {
			continue
		}
		nw.removeEdge(e.a, e.b)
		if nw.connected() {
			toDrop--
		} else {
			nw.addEdge(e.a, e.b)
		}
	}
	return nw, nil
}

func (nw *Network) addEdge(a, b int) {
	d := nw.nodes[a].Dist(nw.nodes[b])
	nw.adj[a] = append(nw.adj[a], arc{to: int32(b), dist: d})
	nw.adj[b] = append(nw.adj[b], arc{to: int32(a), dist: d})
}

func (nw *Network) removeEdge(a, b int) {
	rm := func(from, to int) {
		s := nw.adj[from]
		for i, e := range s {
			if int(e.to) == to {
				s[i] = s[len(s)-1]
				nw.adj[from] = s[:len(s)-1]
				return
			}
		}
	}
	rm(a, b)
	rm(b, a)
}

func (nw *Network) connected() bool {
	if len(nw.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(nw.nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range nw.adj[v] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, int(e.to))
			}
		}
	}
	return count == len(nw.nodes)
}

// NumNodes returns the number of intersections.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// Node returns an intersection's location.
func (nw *Network) Node(i int) geo.Point { return nw.nodes[i] }

// NearestNode returns the intersection closest to p (linear scan for the
// grid sizes in use; the generating grid gives a good initial guess).
func (nw *Network) NearestNode(p geo.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, n := range nw.nodes {
		if d := n.Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// ShortestFrom computes road distances from the given node to every node
// (Dijkstra with a binary heap).
func (nw *Network) ShortestFrom(src int) []float64 {
	dist := make([]float64, len(nw.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &nodeHeap{{node: int32(src), dist: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(nodeDist)
		if top.dist > dist[top.node] {
			continue
		}
		for _, e := range nw.adj[top.node] {
			if nd := top.dist + e.dist; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, nodeDist{node: e.to, dist: nd})
			}
		}
	}
	return dist
}

type nodeDist struct {
	node int32
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Distance returns the road distance between two arbitrary points: walk to
// the nearest intersections (Euclidean), traverse the network between them.
func (nw *Network) Distance(a, b geo.Point) float64 {
	na, nb := nw.NearestNode(a), nw.NearestNode(b)
	road := nw.ShortestFrom(na)[nb]
	return a.Dist(nw.nodes[na]) + road + nw.nodes[nb].Dist(b)
}

// Travel returns a model.TravelFunc that precomputes, per worker, the road
// distances from the worker's nearest intersection, so candidate
// construction costs one Dijkstra per worker instead of one per pair.
// Travel time = road distance / worker speed (with the same zero-speed
// semantics as geo.TravelTimeAt).
func (nw *Network) Travel(workers []model.Worker, tasks []model.Task) model.TravelFunc {
	type cache struct {
		node int
		dist []float64
	}
	workerCache := make(map[int]*cache, len(workers))
	taskNode := make(map[int]int, len(tasks))
	return func(w model.Worker, t model.Task) float64 {
		c, ok := workerCache[w.ID]
		if !ok {
			node := nw.NearestNode(w.Loc)
			c = &cache{node: node, dist: nw.ShortestFrom(node)}
			workerCache[w.ID] = c
		}
		tn, ok := taskNode[t.ID]
		if !ok {
			tn = nw.NearestNode(t.Loc)
			taskNode[t.ID] = tn
		}
		d := w.Loc.Dist(nw.nodes[c.node]) + c.dist[tn] + nw.nodes[tn].Dist(t.Loc)
		if d == 0 {
			return 0
		}
		if w.Speed <= 0 {
			return math.Inf(1)
		}
		return d / w.Speed
	}
}
