package assign

import "casc/internal/model"

// This file implements the per-worker quality bounds of Lemmas V.2 and V.3
// and the equilibrium quality measures of Theorem V.2 (price of anarchy /
// price of stability).

// WorkerBounds carries q̂_{i,B} and q̌_{i,B} for one worker: the highest and
// lowest average quality score the worker can have in any group of at least
// B workers (Lemmas V.2 and V.3). Workers that cannot join any feasible
// group (fewer than B−1 co-candidates) have Feasible == false and zero
// bounds.
type WorkerBounds struct {
	QHat     float64 // q̂_{i,B}: mean of the B−1 highest pair qualities
	QCheck   float64 // q̌_{i,B}: mean of the B−1 lowest pair qualities
	Feasible bool
}

// Bounds computes WorkerBounds for every worker over its co-candidate set
// (workers sharing at least one candidate task — the only workers it can
// ever share a group with).
func Bounds(in *model.Instance) []WorkerBounds {
	nW := len(in.Workers)
	B := in.B
	out := make([]WorkerBounds, nW)
	if B < 2 {
		return out
	}
	walk := newPeerWalk(in)
	hiK, loK := newTopK(), newTopK()
	for w := 0; w < nW; w++ {
		peers, vals := walk.of(w)
		if len(peers)+len(vals) < B-1 {
			continue
		}
		hiK.reset(B-1, true)
		loK.reset(B-1, false)
		for _, q := range vals {
			hiK.push(q)
			loK.push(q)
		}
		for _, k := range peers {
			q := in.Quality.Quality(w, k)
			hiK.push(q)
			loK.push(q)
		}
		var lo, hi float64
		for _, q := range loK.vals() {
			lo += q
		}
		for _, q := range hiK.vals() {
			hi += q
		}
		out[w] = WorkerBounds{
			QHat:     hi / float64(B-1),
			QCheck:   lo / float64(B-1),
			Feasible: true,
		}
	}
	return out
}

// EquilibriumQuality reports the Theorem V.2 measures for a GT run on one
// instance: the UPPER estimate standing in for the social optimum, the
// achieved score, the PoA lower bound N_init·B·q̌ (where N_init is the
// number of tasks the TPG initialization finished and q̌ the minimum
// feasible q̌_{i,B}), and the resulting bracket on the achieved-to-optimal
// ratio.
type EquilibriumQuality struct {
	Upper         float64 // Q̂(ϕ) of Equation 9
	Achieved      float64 // Q of the equilibrium assignment
	PoALowerBound float64 // N_init·B·q̌ (Theorem V.2)
	// AchievedRatio is Achieved/Upper (≤ PoS ≤ 1); zero when Upper is 0.
	AchievedRatio float64
}

// AnalyzeEquilibrium evaluates an assignment (typically a GT equilibrium)
// against the Theorem V.2 bounds. nInit is the number of tasks the
// initialization stage finished: when the assignment came from a default
// GT run, the CompletedTasks count of a TPG solve of the same instance.
func AnalyzeEquilibrium(in *model.Instance, a *model.Assignment, nInit int) EquilibriumQuality {
	eq := EquilibriumQuality{
		Upper:    Upper(in),
		Achieved: a.TotalScore(in),
	}
	bounds := Bounds(in)
	qCheck := -1.0
	for _, b := range bounds {
		if !b.Feasible {
			continue
		}
		if qCheck < 0 || b.QCheck < qCheck {
			qCheck = b.QCheck
		}
	}
	if qCheck < 0 {
		qCheck = 0
	}
	eq.PoALowerBound = float64(nInit) * float64(in.B) * qCheck
	if eq.Upper > 0 {
		eq.AchievedRatio = eq.Achieved / eq.Upper
	}
	return eq
}
