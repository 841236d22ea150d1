package coop

// Subset restricts a quality model to a subset of workers re-indexed
// densely: local index i maps to global worker IDs[i]. The batch framework
// uses it to hand each round's sampled workers to the solvers without
// copying the underlying model.
//
// Quality is safe for concurrent use when Base's is; QualityBlock is not,
// since every call maps its IDs into the same scratch slice.
type Subset struct {
	Base Model
	IDs  []int
	g    []int // QualityBlock's mapped IDs, reused by the next call
}

// NewSubset returns a Subset view. It panics if any ID is out of the base
// model's range.
func NewSubset(base Model, ids []int) *Subset {
	n := base.NumWorkers()
	for _, id := range ids {
		if id < 0 || id >= n {
			panic("coop: subset ID out of range")
		}
	}
	return &Subset{Base: base, IDs: ids}
}

// Quality implements Model.
func (s *Subset) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	return s.Base.Quality(s.IDs[i], s.IDs[k])
}

// QualityBlock implements model.BlockModel. It hands the block to the
// base model's QualityBlock when the base has one and the mapped IDs
// ascend, as they do when IDs ascends, and reads it pair by pair otherwise.
// The mapped IDs go into one slice, allocated by the first call and
// reused by the rest, so a fill allocates nothing per task.
func (s *Subset) QualityBlock(ids []int, dst []float64) {
	b, ok := s.Base.(blockReader)
	if !ok {
		readPairs(s, ids, dst)
		return
	}
	if s.g == nil {
		s.g = make([]int, len(s.IDs)) // ids holds distinct positions
	}
	g := s.g[:len(ids)]
	for x, i := range ids {
		g[x] = s.IDs[i]
		if x > 0 && g[x] <= g[x-1] {
			readPairs(s, ids, dst)
			return
		}
	}
	b.QualityBlock(g, dst)
}

// NumWorkers implements Model.
func (s *Subset) NumWorkers() int { return len(s.IDs) }
