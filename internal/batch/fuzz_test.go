package batch

import (
	"math/rand"
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/stats"
)

// scriptSource turns a byte script into per-round arrivals: byte 2r gives
// round r's worker count, byte 2r+1 its task count. Positions, speeds and
// time gates come from an RNG seeded by (seed, round), so every call for a
// round returns the same entities. Some workers arrive and some tasks are
// created after the round that announces them, and deadlines are short
// enough that tasks expire unserved. With lattice set, positions lie on
// the 1/20 lattice and radii are 5 or 10 lattice steps, so 3-4-5 and 5-0
// offsets put tasks exactly on working-disc edges.
func scriptSource(seed int64, script []byte, b int, lattice bool) *GeneratorSource {
	const maxW, maxT = 8, 4
	rounds := len(script) / 2
	loc := func(r *rand.Rand) geo.Point {
		if lattice {
			return geo.Pt(float64(r.Intn(21))/20, float64(r.Intn(21))/20)
		}
		return geo.Pt(r.Float64(), r.Float64())
	}
	at := func(round, k int) (int, bool) {
		if round >= rounds {
			return 0, false
		}
		return int(script[2*round+k]), true
	}
	return &GeneratorSource{
		Model: coop.Synthetic{N: maxW*rounds + 1, Seed: uint64(seed)},
		WorkersFn: func(round int) []model.Worker {
			v, ok := at(round, 0)
			if !ok {
				return nil
			}
			r := stats.NewRNG(seed*7919 + int64(round))
			ws := make([]model.Worker, v%maxW)
			for i := range ws {
				ws[i] = model.Worker{
					ID:     round*maxW + i,
					Loc:    loc(r),
					Speed:  0.2 + r.Float64()*0.6,
					Radius: 0.25 + r.Float64()*0.35,
					Arrive: float64(round) + float64(r.Intn(3))*0.75,
				}
				if lattice {
					ws[i].Radius = float64(5+5*r.Intn(2)) / 20
				}
			}
			return ws
		},
		TasksFn: func(round int) []model.Task {
			v, ok := at(round, 1)
			if !ok {
				return nil
			}
			r := stats.NewRNG(seed*7919 + 1_000_003 + int64(round))
			ts := make([]model.Task, v%maxT)
			for j := range ts {
				created := float64(round) + float64(r.Intn(3))*0.75
				ts[j] = model.Task{
					ID:       round*maxT + j,
					Loc:      loc(r),
					Capacity: b + r.Intn(3),
					Created:  created,
					Deadline: created + 0.25 + r.Float64()*3,
				}
			}
			return ts
		},
	}
}

// FuzzBatchStages drives script-built arrivals through both graph stages
// and requires the from-scratch stage and the incremental engine to agree
// bit for bit, round by round. The first script byte picks B and the
// patience, and a value of 0xF0 or more also puts positions and radii on
// scriptSource's lattice; the rest are arrivals, followed by a quiet tail
// in which the from-scratch stage short-circuits no-op rounds and the
// engine does not.
func FuzzBatchStages(f *testing.F) {
	f.Add(int64(1), []byte{0, 7, 3, 5, 2, 6, 1})
	f.Add(int64(2), []byte{5, 6, 3, 0, 0, 7, 2, 1, 1, 6, 3})
	f.Add(int64(3), []byte{2, 7, 3, 7, 3, 7, 3, 0, 0, 0, 0, 4, 1})
	f.Add(int64(4), []byte{7})
	// Lattice: some pairs sit on a disc edge where Hypot admits them and
	// the squared distance did not.
	f.Add(int64(37), []byte{0xF0, 7, 3, 5, 2, 6, 1})
	f.Add(int64(36), []byte{0xF1, 7, 3, 7, 3, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) == 0 {
			return
		}
		const quietTail = 4
		arrivals := script[1:]
		if len(arrivals) > 40 {
			arrivals = arrivals[:40]
		}
		b := 2 + int(script[0]%2)
		src := scriptSource(seed, arrivals, b, script[0] >= 0xF0)
		rounds := len(arrivals)/2 + quietTail
		for _, s := range []assign.Solver{assign.NewTPG(), assign.NewGT(assign.GTOptions{})} {
			cfg := Config{Solver: s, Rounds: rounds, B: b, Patience: int(script[0]/2) % 4}
			base, inc, baseTr, incTr := runBoth(t, cfg, src)
			assertBitwiseEqual(t, base, inc, baseTr, incTr)
		}
	})
}
