package model

// Subset restricts a quality model to a subset of workers re-indexed
// densely: local index i maps to global worker IDs[i]. A round's workers
// and a sub-instance's (SubInstance) read their qualities through one.
// Quality is safe for concurrent use when Base's is; QualityBlock is not,
// since every call maps its IDs into the same scratch slice.
type Subset struct {
	Base QualityModel
	IDs  []int
	g    []int // QualityBlock's mapped IDs, reused by the next call
}

// NewSubset returns a Subset view. It panics if any ID is out of the base
// model's range.
func NewSubset(base QualityModel, ids []int) *Subset {
	n := base.NumWorkers()
	for _, id := range ids {
		if id < 0 || id >= n {
			panic("model: subset ID out of range")
		}
	}
	return &Subset{Base: base, IDs: ids}
}

// WorkerSubset returns the Subset of base, a model keyed by worker ID,
// over the given workers: local index i reads base at workers[i].ID.
func WorkerSubset(base QualityModel, workers []Worker) *Subset {
	ids := make([]int, len(workers))
	for i, w := range workers {
		ids[i] = w.ID
	}
	return NewSubset(base, ids)
}

// Quality implements QualityModel.
func (s *Subset) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	return s.Base.Quality(s.IDs[i], s.IDs[k])
}

// QualityBlock implements BlockModel. It hands the block to the base
// model's QualityBlock when the base has one and the mapped IDs ascend, as
// they do when IDs ascends, and reads it pair by pair otherwise. The
// mapped IDs go into one slice, reused by every call.
func (s *Subset) QualityBlock(ids []int, dst []float64) {
	b, ok := s.Base.(BlockModel)
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

// NumWorkers implements QualityModel.
func (s *Subset) NumWorkers() int { return len(s.IDs) }
