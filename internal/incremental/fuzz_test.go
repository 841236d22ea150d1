package incremental_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/model"
	"casc/internal/partition"
	"casc/internal/stats"
)

// FuzzIncrementalDirtySet drives the engine through a script of random
// churn (arrivals with future time gates, expiries, removals) and checks
// the three pillars of the engine contract against a from-scratch oracle
// every round:
//
//  0. the planned instance holds exactly the population the script keeps
//     on its own (arrival order with compaction, or ascending ID under
//     OrderByID), and BeginRound expires exactly the script's tasks past
//     their deadline, in that order,
//  1. the maintained candidate graph equals BuildCandidates on a fresh
//     instance of the script's population,
//  2. the engine's assignment is bitwise identical to solving that fresh
//     instance directly (dirty-set completeness: a missed dirty component
//     would carry a stale assignment and diverge),
//  3. every component carried as clean has an identical membership and
//     edge fingerprint to the previous round (dirty-set soundness of the
//     carry decision, independent of whether the solver output happens to
//     coincide),
//  4. the planned components equal partition.Components on the fresh
//     instance: membership, member order, Pairs and component order, and
//  5. the engine's UPPER is bitwise assign.Upper on the fresh instance.
//
// A script starts in the batch tier's configuration (arrival order,
// Carry) with external IDs equal to arrival indices. A first byte of
// 0xF0 or more is a marker: it picks the configuration by its value mod 3
// — the batch tier's, the shard tier's (OrderByID, Carry off), or
// OrderByID with Carry — and scrambles the external IDs, which stay unique
// but are no longer monotone in arrival order, so the ID sort really
// reorders entities. A first byte in [0xE0, 0xF0) is the same marker and
// also puts positions on the 1/20 lattice, with radii of 5 or 10 lattice
// steps and four times the speed, so 3-4-5 and 5-0 offsets put reachable
// tasks exactly on working-disc edges, and some points on the engine
// grid's cell edges. Scripts without a marker replay as they always did.
func FuzzIncrementalDirtySet(f *testing.F) {
	f.Add(int64(1), []byte{3, 5, 2, 9, 1, 4, 7, 0, 6, 2})
	f.Add(int64(7), []byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(42), []byte{2, 2, 2, 2, 16, 16, 1, 3})
	f.Add(int64(99), []byte{12, 1, 1, 9, 9, 9, 0, 0, 4})
	// Marked: the shard tier's configuration, then OrderByID with Carry.
	f.Add(int64(6), []byte{0xF1, 3, 4, 2, 9, 1, 4, 7, 0, 6, 3, 4})
	f.Add(int64(32), []byte{0xF2, 3, 4, 2, 9, 1, 4, 7, 0, 6, 3, 4})
	// Lattice, in the batch tier's and the shard tier's configuration:
	// some pairs sit on a disc edge where Hypot admits them and the
	// squared distance did not.
	f.Add(int64(2), []byte{0xE0, 4, 4, 4, 9, 4, 4, 7, 0, 4, 3, 4})
	f.Add(int64(4), []byte{0xE1, 4, 4, 4, 9, 4, 4, 7, 0, 4, 3, 4})
	// Early removals: the batch tier's configuration removes position 0 of
	// 8 workers in round 3 and of 7 tasks in round 4, so Plan patches from
	// the front of a standing population.
	f.Add(int64(11), []byte{4, 9, 3, 8, 3, 2, 3, 5, 4, 0, 9, 5, 2, 2})
	// The same churn under OrderByID, with Carry and without: scrambled
	// IDs arrive below standing ones every round (task 852 below 1237 in
	// round 1, 82 below 2941 in round 5), so the ID merge moves standing
	// entities up.
	f.Add(int64(13), []byte{0xF2, 4, 9, 3, 8, 3, 2, 3, 5, 4, 0, 9, 5, 2, 2})
	f.Add(int64(14), []byte{0xF1, 4, 9, 3, 8, 3, 2, 3, 5, 4, 0, 9, 5, 2, 2})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) == 0 {
			t.Skip("empty script")
		}
		const B = 2
		pos := 0
		next := func() int { b := int(script[pos%len(script)]); pos++; return b }
		orderByID, carry := false, true
		id := func(n int) int { return n }
		lattice := script[0] >= 0xE0 && script[0] < 0xF0
		if script[0] >= 0xE0 {
			mode := next() % 3
			orderByID, carry = mode != 0, mode != 1
			// n ↦ n·1237 mod 4096 is a bijection on [0, 4096).
			id = func(n int) int { return n * 1237 % 4096 }
		}
		eng := incremental.New(incremental.Config{B: B, OrderByID: orderByID, Carry: carry, Seed: seed})
		base := coop.Synthetic{N: 4096, Seed: uint64(seed) + 1}
		rng := stats.NewRNG(seed)
		loc := func() geo.Point {
			if lattice {
				return geo.Pt(float64(rng.Intn(21))/20, float64(rng.Intn(21))/20)
			}
			return geo.Pt(rng.Float64(), rng.Float64())
		}
		solver := assign.NewTPG()
		ctx := context.Background()
		nextW, nextT := 0, 0
		prevFP := map[string]string{}
		// The script's own live population, kept in the order a fresh
		// build would see it.
		var liveW []model.Worker
		var liveT []model.Task

		rounds := 3 + next()%6
		for round := 0; round < rounds; round++ {
			now := float64(round)
			var wantExp []int
			liveT = slices.DeleteFunc(liveT, func(tk model.Task) bool {
				if tk.Deadline > now {
					return false
				}
				wantExp = append(wantExp, tk.ID)
				return true
			})
			if got := eng.BeginRound(now); !slices.Equal(got, wantExp) {
				t.Fatalf("round %d: BeginRound expired %v, want %v", round, got, wantExp)
			}

			for i, nw := 0, next()%5; i < nw && nextW < 4000; i++ {
				w := model.Worker{
					ID:  id(nextW),
					Loc: loc(),
					// Radii large enough that components overlap and merge.
					Speed:  0.05 + rng.Float64()*0.1,
					Radius: 0.05 + rng.Float64()*0.2,
					// Future arrivals exercise the time-gate flips.
					Arrive: now + float64(next()%3) - 1,
				}
				if lattice {
					w.Radius = float64(5+5*rng.Intn(2)) / 20
					w.Speed *= 4
				}
				eng.AddWorker(w)
				liveW = append(liveW, w)
				nextW++
			}
			for i, nt := 0, next()%5; i < nt && nextT < 4000; i++ {
				tk := model.Task{
					ID:       id(nextT),
					Loc:      loc(),
					Capacity: B + next()%3,
					Created:  now + float64(next()%2),
					Deadline: now + 0.5 + float64(next()%4),
				}
				eng.AddTask(tk)
				liveT = append(liveT, tk)
				nextT++
			}
			if orderByID {
				slices.SortStableFunc(liveW, func(a, b model.Worker) int { return a.ID - b.ID })
				slices.SortStableFunc(liveT, func(a, b model.Task) int { return a.ID - b.ID })
			}

			r := eng.Plan()
			in := r.In
			ids := make([]int, len(in.Workers))
			for i, w := range in.Workers {
				ids[i] = w.ID
			}
			in.Quality = coop.NewSubset(base, ids)

			// Oracle 0: the instance holds the script's population.
			if !slices.Equal(in.Workers, liveW) {
				t.Fatalf("round %d: instance workers diverge from the live population\nengine %v\nscript %v", round, in.Workers, liveW)
			}
			if !slices.Equal(in.Tasks, liveT) {
				t.Fatalf("round %d: instance tasks diverge from the live population\nengine %v\nscript %v", round, in.Tasks, liveT)
			}

			// Oracle 1: candidate graph equals a fresh build.
			fresh := &model.Instance{B: B, Now: now}
			fresh.Workers = append([]model.Worker(nil), liveW...)
			fresh.Tasks = append([]model.Task(nil), liveT...)
			fresh.Quality = in.Quality
			fresh.BuildCandidates(model.IndexRTree)
			if err := candEqual(in.WorkerCand, fresh.WorkerCand); err != nil {
				t.Fatalf("round %d: WorkerCand diverges from fresh build: %v", round, err)
			}
			if err := candEqual(in.TaskCand, fresh.TaskCand); err != nil {
				t.Fatalf("round %d: TaskCand diverges from fresh build: %v", round, err)
			}

			// Oracle 4: the maintained components equal a fresh partition.
			if err := compsEqual(r.Comps, partition.Components(fresh)); err != nil {
				t.Fatalf("round %d: components diverge from partition.Components: %v", round, err)
			}

			// Oracle 2: bitwise solve equivalence against the fresh instance.
			a, err := eng.Solve(ctx, solver)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solver.Solve(ctx, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(in); err != nil {
				t.Fatalf("round %d: invalid engine assignment: %v", round, err)
			}
			gotPairs, wantPairs := a.Pairs(), want.Pairs()
			if len(gotPairs) != len(wantPairs) {
				t.Fatalf("round %d: %d pairs != fresh %d\nengine %v (score %v)\nfresh  %v (score %v)\ndirty %v",
					round, len(gotPairs), len(wantPairs), gotPairs, a.TotalScore(in), wantPairs, want.TotalScore(fresh), r.Dirty)
			}
			for i := range gotPairs {
				if gotPairs[i] != wantPairs[i] {
					t.Fatalf("round %d: pair %d: %+v != fresh %+v", round, i, gotPairs[i], wantPairs[i])
				}
			}
			if g, w := a.TotalScore(in), want.TotalScore(fresh); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("round %d: score %v != fresh %v", round, g, w)
			}

			// Oracle 3: components carried clean must be fingerprint-stable.
			curFP := make(map[string]string, len(r.Comps))
			for ci, c := range r.Comps {
				key, full := fingerprint(in, c.Workers, c.Tasks)
				curFP[key] = full
				if r.Dirty[ci] {
					continue
				}
				prev, ok := prevFP[key]
				if !ok {
					t.Fatalf("round %d: component %s carried clean but did not exist last round", round, key)
				}
				if prev != full {
					t.Fatalf("round %d: component %s carried clean but changed:\nprev %s\nnow  %s", round, key, prev, full)
				}
			}
			prevFP = curFP

			// Oracle 5: UPPER with carried q̂ equals the full pass bitwise.
			if g, w := eng.Upper(), assign.Upper(fresh); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("round %d: engine UPPER %v != assign.Upper %v", round, g, w)
			}

			// Random removals (ascending instance positions).
			var remW, remT []int
			for i := range in.Workers {
				if next()%7 == 0 {
					remW = append(remW, i)
				}
			}
			for j := range in.Tasks {
				if next()%5 == 0 {
					remT = append(remT, j)
				}
			}
			eng.Commit(a, remW, remT)
			liveW = removeAt(liveW, remW)
			liveT = removeAt(liveT, remT)
		}
	})
}

// removeAt returns xs without the ascending positions pos, in order.
func removeAt[T any](xs []T, pos []int) []T {
	kept := xs[:0]
	for i, x := range xs {
		if len(pos) > 0 && pos[0] == i {
			pos = pos[1:]
			continue
		}
		kept = append(kept, x)
	}
	return kept
}

// compsEqual compares components field by field, in order.
func compsEqual(got, want []partition.Component) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d components != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Workers, w.Workers) || !slices.Equal(g.Tasks, w.Tasks) || g.Pairs != w.Pairs {
			return fmt.Errorf("component %d: %+v != %+v", i, g, w)
		}
	}
	return nil
}

// candEqual compares candidate lists treating nil and empty as equal.
func candEqual(got, want [][]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("entry %d: len %d != %d (%v vs %v)", i, len(got[i]), len(want[i]), got[i], want[i])
		}
		for k := range got[i] {
			if got[i][k] != want[i][k] {
				return fmt.Errorf("entry %d[%d]: %d != %d", i, k, got[i][k], want[i][k])
			}
		}
	}
	return nil
}

// fingerprint renders a component by external IDs: the key identifies the
// component by its sorted worker-ID set, the full form captures exact
// member order, task attributes, and the candidate edges.
func fingerprint(in *model.Instance, workers, tasks []int) (key, full string) {
	wids := make([]int, len(workers))
	for i, w := range workers {
		wids[i] = in.Workers[w].ID
	}
	sorted := append([]int(nil), wids...)
	sort.Ints(sorted)
	var kb strings.Builder
	for _, id := range sorted {
		fmt.Fprintf(&kb, "w%d,", id)
	}

	var fb strings.Builder
	for _, w := range workers {
		fmt.Fprintf(&fb, "w%d;", in.Workers[w].ID)
	}
	for _, tj := range tasks {
		tk := in.Tasks[tj]
		fmt.Fprintf(&fb, "t%d(cap%d,d%g):", tk.ID, tk.Capacity, tk.Deadline)
		for _, wi := range in.TaskCand[tj] {
			fmt.Fprintf(&fb, "w%d,", in.Workers[wi].ID)
		}
		fb.WriteByte(';')
	}
	return kb.String(), fb.String()
}
