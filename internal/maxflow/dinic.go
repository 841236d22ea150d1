// Package maxflow implements Dinic's maximum-flow algorithm on integer
// capacities. It is the substrate of the MFLOW baseline from the paper's
// experimental study (§VI-A), which follows GeoCrowd [11]: each batch is
// transformed into a flow network source → workers (capacity 1) → valid
// tasks (capacity 1 per edge) → sink (capacity a_j), and a maximum flow
// yields an assignment maximizing the number of valid worker-and-task pairs.
package maxflow

import "fmt"

// Graph is a flow network under construction. Nodes are dense integers
// [0, n). Add edges with AddEdge, then call MaxFlow once.
type Graph struct {
	n     int
	edges []edge
	head  [][]int32 // adjacency: node -> indices into edges
}

type edge struct {
	to  int32
	cap int32
	// The reverse edge is at index^1 (edges are added in pairs).
}

// NewGraph returns a graph with n nodes and no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Graph{n: n, head: make([][]int32, n)}
}

// AddEdge adds a directed edge from u to v with the given capacity and
// returns its edge index (usable with Flow after MaxFlow runs). Capacity
// must be non-negative.
func (g *Graph) AddEdge(u, v, capacity int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	idx := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), cap: int32(capacity)})
	g.edges = append(g.edges, edge{to: int32(u), cap: 0})
	g.head[u] = append(g.head[u], int32(idx))
	g.head[v] = append(g.head[v], int32(idx+1))
	return idx
}

// Flow returns the amount of flow pushed through the edge returned by
// AddEdge. Call after MaxFlow.
func (g *Graph) Flow(edgeIdx int) int {
	// Residual capacity of the reverse edge equals the flow on the forward.
	return int(g.edges[edgeIdx^1].cap)
}

// MaxFlow computes the maximum flow from s to t using Dinic's algorithm
// (BFS level graph + DFS blocking flows). It runs in O(V^2 E) generally and
// O(E sqrt(V)) on unit-capacity bipartite networks like the MFLOW reduction.
func (g *Graph) MaxFlow(s, t int) int {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		panic("maxflow: source/sink out of range")
	}
	if s == t {
		return 0
	}
	level := make([]int32, g.n)
	iter := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	total := 0
	for {
		// BFS: build level graph.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, ei := range g.head[u] {
				e := g.edges[ei]
				if e.cap > 0 && level[e.to] < 0 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		if level[t] < 0 {
			return total
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, int32(1<<30), level, iter)
			if f == 0 {
				break
			}
			total += int(f)
		}
	}
}

func (g *Graph) dfs(u, t int, f int32, level, iter []int32) int32 {
	if u == t {
		return f
	}
	for ; iter[u] < int32(len(g.head[u])); iter[u]++ {
		ei := g.head[u][iter[u]]
		e := &g.edges[ei]
		if e.cap <= 0 || level[e.to] != level[u]+1 {
			continue
		}
		d := g.dfs(int(e.to), t, min32(f, e.cap), level, iter)
		if d > 0 {
			e.cap -= d
			g.edges[ei^1].cap += d
			return d
		}
	}
	return 0
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
