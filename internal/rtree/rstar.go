package rtree

import (
	"fmt"
	"math"
	"sort"

	"casc/internal/geo"
)

// RStar is a static R-tree over a packed node arena, built by BulkRStar.
// Every node lives in flat parallel slices indexed by an int32 node
// number: node n's entry slots occupy the half-open block
// [n*M, n*M+count[n]) of minX/minY/maxX/maxY/ref, where M is the
// fan-out maxEntries. The layout keeps the whole tree in a handful of
// contiguous allocations, so a query touches four float64 arrays
// sequentially per node instead of chasing per-node pointers.
type RStar struct {
	maxEntries int
	root       int32
	height     int
	size       int

	count []int32
	leaf  []bool
	minX  []float64
	minY  []float64
	maxX  []float64
	maxY  []float64
	// ref holds the child node number (internal nodes) or the item ID
	// (leaves). Item IDs must fit in int31.
	ref []int32
}

// newRStar returns an empty tree with the given maximum node fan-out M
// (0 selects DefaultMaxEntries; M must be at least 4 otherwise).
func newRStar(maxEntries int) *RStar {
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: maxEntries %d < 4", maxEntries))
	}
	t := &RStar{maxEntries: maxEntries, height: 1}
	t.root = t.newNode(true)
	return t
}

// newNode appends a zeroed node block to the arena and returns its number.
func (t *RStar) newNode(leaf bool) int32 {
	n := int32(len(t.count))
	t.count = append(t.count, 0)
	t.leaf = append(t.leaf, leaf)
	t.minX = append(t.minX, make([]float64, t.maxEntries)...)
	t.minY = append(t.minY, make([]float64, t.maxEntries)...)
	t.maxX = append(t.maxX, make([]float64, t.maxEntries)...)
	t.maxY = append(t.maxY, make([]float64, t.maxEntries)...)
	t.ref = append(t.ref, make([]int32, t.maxEntries)...)
	return n
}

func (t *RStar) slot(n int32, i int32) int { return int(n)*t.maxEntries + int(i) }

func (t *RStar) entRect(n, i int32) geo.Rect {
	s := t.slot(n, i)
	return geo.Rect{Min: geo.Pt(t.minX[s], t.minY[s]), Max: geo.Pt(t.maxX[s], t.maxY[s])}
}

func (t *RStar) appendEnt(n int32, r geo.Rect, ref int32) {
	s := t.slot(n, t.count[n])
	t.minX[s], t.minY[s] = r.Min.X, r.Min.Y
	t.maxX[s], t.maxY[s] = r.Max.X, r.Max.Y
	t.ref[s] = ref
	t.count[n]++
}

func (t *RStar) nodeBBox(n int32) geo.Rect {
	b := t.entRect(n, 0)
	for i := int32(1); i < t.count[n]; i++ {
		b = b.Union(t.entRect(n, i))
	}
	return b
}

// SearchCircle appends to dst the IDs of all items whose rectangles
// intersect the closed disk of radius rad centered at c, and returns the
// extended slice.
func (t *RStar) SearchCircle(c geo.Point, rad float64, dst []int) []int {
	if t.size == 0 {
		return dst
	}
	stack := []int32{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := int(n) * t.maxEntries
		for i := 0; i < int(t.count[n]); i++ {
			s := base + i
			r := geo.Rect{Min: geo.Pt(t.minX[s], t.minY[s]), Max: geo.Pt(t.maxX[s], t.maxY[s])}
			if !r.IntersectsCircle(c, rad) {
				continue
			}
			if t.leaf[n] {
				dst = append(dst, int(t.ref[s]))
			} else {
				stack = append(stack, t.ref[s])
			}
		}
	}
	return dst
}

// BulkRStar builds an RStar from items by Sort-Tile-Recursive packing
// directly into the packed arena — the per-round build path of
// BuildCandidates. maxEntries is the node fan-out M (0 selects
// DefaultMaxEntries; M must be at least 4 otherwise).
func BulkRStar(items []Item, maxEntries int) *RStar {
	t := newRStar(maxEntries)
	if len(items) == 0 {
		return t
	}
	m := t.maxEntries
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Rect.Center().X < sorted[j].Rect.Center().X
	})
	nLeaves := (len(sorted) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * m
	var level []int32
	for s := 0; s < len(sorted); s += sliceSize {
		end := s + sliceSize
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for o := 0; o < len(slice); o += m {
			oe := o + m
			if oe > len(slice) {
				oe = len(slice)
			}
			var n int32
			if len(level) == 0 && s == 0 && oe == len(slice) && s+sliceSize >= len(sorted) {
				n = t.root // everything fits in the root leaf
			} else {
				n = t.newNode(true)
			}
			for _, it := range slice[o:oe] {
				if it.ID < 0 || it.ID > math.MaxInt32 {
					panic(fmt.Sprintf("rtree: RStar item ID %d outside int31", it.ID))
				}
				t.appendEnt(n, it.Rect, int32(it.ID))
			}
			level = append(level, n)
		}
	}
	height := 1
	for len(level) > 1 {
		level = t.packLevel(level)
		height++
	}
	t.root = level[0]
	t.height = height
	t.size = len(items)
	return t
}

// packLevel groups child nodes into parents, STR style, in the packed
// arena.
func (t *RStar) packLevel(children []int32) []int32 {
	m := t.maxEntries
	boxes := make([]geo.Rect, len(children))
	for i, c := range children {
		boxes[i] = t.nodeBBox(c)
	}
	ord := make([]int, len(children))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool {
		return boxes[ord[i]].Center().X < boxes[ord[j]].Center().X
	})
	nParents := (len(children) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceSize := nSlices * m
	var parents []int32
	for s := 0; s < len(ord); s += sliceSize {
		end := s + sliceSize
		if end > len(ord) {
			end = len(ord)
		}
		slice := ord[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return boxes[slice[i]].Center().Y < boxes[slice[j]].Center().Y
		})
		for o := 0; o < len(slice); o += m {
			oe := o + m
			if oe > len(slice) {
				oe = len(slice)
			}
			parent := t.newNode(false)
			for _, ci := range slice[o:oe] {
				t.appendEnt(parent, boxes[ci], children[ci])
			}
			parents = append(parents, parent)
		}
	}
	return parents
}

// checkInvariants validates structural invariants; used by tests.
func (t *RStar) checkInvariants() error {
	count, err := t.checkNode(t.root, t.height)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: RStar size %d but %d reachable entries", t.size, count)
	}
	return nil
}

func (t *RStar) checkNode(n int32, depth int) (int, error) {
	c := int(t.count[n])
	if c > t.maxEntries {
		return 0, fmt.Errorf("rtree: RStar node %d has %d entries > max %d", n, c, t.maxEntries)
	}
	if t.leaf[n] {
		if depth != 1 {
			return 0, fmt.Errorf("rtree: RStar leaf %d at depth %d", n, depth)
		}
		return c, nil
	}
	if c == 0 {
		return 0, fmt.Errorf("rtree: RStar internal node %d empty", n)
	}
	total := 0
	for i := int32(0); i < t.count[n]; i++ {
		child := t.ref[t.slot(n, i)]
		if e, b := t.entRect(n, i), t.nodeBBox(child); b.Min.X < e.Min.X || b.Min.Y < e.Min.Y || b.Max.X > e.Max.X || b.Max.Y > e.Max.Y {
			return 0, fmt.Errorf("rtree: RStar child %d bbox escapes parent entry", child)
		}
		sub, err := t.checkNode(child, depth-1)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
