package ksetpack

import (
	"fmt"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
)

// Reduction materializes the polynomial-time transformation of Theorem II.1
// from a k-SP instance to a CA-SC instance:
//
//   - one worker per universe element, one task per subset C_j;
//   - every worker can reach every task before its deadline (the paper
//     "configures that each worker can arrive at every task");
//   - task t_j has capacity |C_j| and B = min_j |C_j|;
//   - pairwise qualities are chosen so that assigning exactly the workers of
//     C_j to t_j yields Q(W_j) = w(C_j): pairs inside C_j get
//     q = w(C_j)/(|C_j|·(|C_j|−1)) · (|C_j|−1) = w(C_j)/|C_j| … folded into
//     the pair constant qualityOf below; cross-set pairs get 0.
//
// The quality assignment is well-defined only when no unordered element
// pair appears in more than one subset (a "linear" set system); Build
// rejects other inputs. Weights are scaled so qualities stay in [0,1].
//
// Value preservation: every feasible packing maps to an assignment of equal
// total cooperation score (tested), hence OPT_CASC ≥ OPT_kSP — the
// direction the NP-hardness proof needs. The converse inequality can fail:
// CA-SC additionally rewards *partial* subsets embedded in mixed groups
// (see TestReductionChunkCreditGap for the concrete counterexample), so the
// paper's claim that the instances have exactly equal optima is loose; the
// reduction still proves hardness for the decision version restricted to
// uniform set sizes k = B, where groups below size B earn nothing.
//
//casclint:ignore deadcode the paper's Theorem II.1 k-SP reduction, kept as a tested artifact of the NP-hardness proof
type Reduction struct {
	KSP  *Instance
	CASC *model.Instance
	// scale converts CA-SC scores back to k-SP weights: weight = score*scale.
	scale float64
}

// Build constructs the reduction. It returns an error when the set system
// reuses an element pair (quality would be overconstrained) or the instance
// is invalid.
//
//casclint:ignore deadcode the paper's Theorem II.1 k-SP reduction, kept as a tested artifact of the NP-hardness proof
func Build(ksp *Instance) (*Reduction, error) {
	if err := ksp.Validate(); err != nil {
		return nil, err
	}
	if len(ksp.Sets) == 0 || ksp.U == 0 {
		return nil, fmt.Errorf("ksetpack: empty instance")
	}
	// Scale weights so every pair quality lands in [0,1].
	maxW := 0.0
	minSize := ksp.K
	for i, s := range ksp.Sets {
		if ksp.Weights[i] > maxW {
			maxW = ksp.Weights[i]
		}
		if len(s) < minSize {
			minSize = len(s)
		}
	}
	scale := 1.0
	if maxW > 1 {
		scale = maxW
	}

	q := coop.NewMatrix(ksp.U)
	type pair struct{ a, b int }
	owner := map[pair]int{}
	for si, s := range ksp.Sets {
		size := len(s)
		if size < 2 {
			// Singleton sets induce no pairs; their tasks can never earn
			// revenue under Equation 2 (B = minSize could be 1, but a group
			// of one has no pairs). Reject: the reduction needs k ≥ 2.
			return nil, fmt.Errorf("ksetpack: set %d has size 1; reduction needs sizes ≥ 2", si)
		}
		// Q(W_j) = 2·C(size,2)·q / (size−1) = size·q, so q = w/size (scaled).
		qv := ksp.Weights[si] / scale / float64(size)
		for a := 0; a < size; a++ {
			for b := a + 1; b < size; b++ {
				p := pair{a: min(s[a], s[b]), b: max(s[a], s[b])}
				if prev, dup := owner[p]; dup {
					return nil, fmt.Errorf("ksetpack: element pair (%d,%d) appears in sets %d and %d; quality assignment overconstrained",
						p.a, p.b, prev, si)
				}
				owner[p] = si
				q.Set(s[a], s[b], qv)
			}
		}
	}

	casc := &model.Instance{Quality: q, B: minSize, Now: 0}
	for e := 0; e < ksp.U; e++ {
		casc.Workers = append(casc.Workers, model.Worker{
			ID:  e,
			Loc: geo.Pt(0.5, 0.5), Speed: 10, Radius: 2, // reaches everything
		})
	}
	for si, s := range ksp.Sets {
		casc.Tasks = append(casc.Tasks, model.Task{
			ID:       si,
			Loc:      geo.Pt(0.5, 0.5),
			Capacity: len(s),
			Deadline: 1,
		})
	}
	casc.BuildCandidates(model.IndexLinear)
	return &Reduction{KSP: ksp, CASC: casc, scale: scale}, nil
}

// FromPacking converts a feasible packing into the induced CA-SC assignment
// (the workers of each selected set serve that set's task).
func (r *Reduction) FromPacking(sol Solution) *model.Assignment {
	a := model.NewAssignment(r.CASC)
	for _, si := range sol {
		for _, e := range r.KSP.Sets[si] {
			a.Assign(e, si)
		}
	}
	return a
}

// ScoreToWeight converts a CA-SC cooperation score back into k-SP weight
// units (undoing the normalization).
func (r *Reduction) ScoreToWeight(score float64) float64 { return score * r.scale }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
