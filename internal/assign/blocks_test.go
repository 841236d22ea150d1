package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casc/internal/model"
)

// blockPalette adds subnormals of both signs to paletteQ's ties, ±0, NaN
// and negatives.
var blockPalette = append([]float64{5e-324, -5e-324, 2.5e-320}, paletteQ...)

// FuzzTaskBlocks solves random instances with TPG, GT and GT+ALL and
// computes UPPER twice, over the quality model and over task blocks
// filled from it, and requires bitwise-equal results. The model is an
// asymmetric table drawn half from blockPalette, so any change in what is
// read or in the order it is added shows in the bits. limit, when not 0,
// sets TPG's SeedLimit (GT's initial TPG included) to 2..17, so pools
// above it take the truncateByAffinity path.
func FuzzTaskBlocks(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(10), uint8(1), uint8(0))
	f.Add(int64(2), uint8(150), uint8(4), uint8(1), uint8(3))
	f.Add(int64(3), uint8(250), uint8(6), uint8(2), uint8(1))
	f.Add(int64(4), uint8(30), uint8(30), uint8(0), uint8(0))
	f.Add(int64(5), uint8(200), uint8(2), uint8(6), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nw, nt, b, limit uint8) {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 4+int(nw), 1+int(nt)%40, 2+int(b)%5)
		tq := &tableQuality{n: len(in.Workers), q: make([]float64, len(in.Workers)*len(in.Workers))}
		for i := range tq.q {
			if r.Intn(2) == 0 {
				tq.q[i] = blockPalette[r.Intn(len(blockPalette))]
			} else {
				tq.q[i] = r.Float64()
			}
		}
		in.Quality = tq
		seedLimit := 0
		if limit != 0 {
			seedLimit = 2 + int(limit)%16
		}
		requireBlocksBitwise(t, in, seedLimit)
	})
}

// requireBlocksBitwise solves in with TPG, GT and GT+ALL, with seedLimit
// as TPG's SeedLimit, and computes UPPER, first over the model and then
// over the blocks FillBlocks sets, and requires bitwise-equal results and
// TotalScores.
func requireBlocksBitwise(t *testing.T, in *model.Instance, seedLimit int) {
	t.Helper()
	solvers := func() []Solver {
		gt, all := NewGT(GTOptions{}), NewGT(GTOptions{LUB: true, Epsilon: 0.01})
		gt.inner.SeedLimit, all.inner.SeedLimit = seedLimit, seedLimit
		return []Solver{&TPG{SeedLimit: seedLimit}, gt, all}
	}
	ctx := context.Background()
	in.Blocks = nil
	var want []*model.Assignment
	for _, s := range solvers() {
		a, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, a)
	}
	upper := Upper(in)
	scores := make([]float64, len(want))
	for i, a := range want {
		scores[i] = a.TotalScore(in)
	}

	in.FillBlocks(ctx)
	for i, s := range solvers() {
		got, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqualFuzz(t, in, got, want[i], s.Name()+" over blocks")
		if g := got.TotalScore(in); math.Float64bits(g) != math.Float64bits(scores[i]) {
			t.Fatalf("%s: TotalScore over blocks %v, over the model %v", s.Name(), g, scores[i])
		}
	}
	if got := Upper(in); math.Float64bits(got) != math.Float64bits(upper) {
		t.Fatalf("Upper over blocks %v (bits %x), over the model %v (bits %x)", got, math.Float64bits(got), upper, math.Float64bits(upper))
	}
}

// TestTaskBlocksPartial runs the comparison on rounds where every worker
// is a candidate of every task, so FillBlocks gives blocks to the first
// tasks only and the rest read the model, and checks that both kinds
// occur.
func TestTaskBlocksPartial(t *testing.T) {
	for _, seedLimit := range []int{0, 5} {
		r := rand.New(rand.NewSource(31))
		in := randomInstance(r, 12, 30, 3)
		for i := range in.Workers {
			in.Workers[i].Radius, in.Workers[i].Speed = 2, 10
		}
		in.BuildCandidates(model.IndexGrid)
		in.Quality = paletteTable(r, len(in.Workers))
		in.FillBlocks(context.Background())
		blocks := 0
		for tk := range in.Tasks {
			if in.TaskBlock(tk) != nil {
				blocks++
			}
		}
		if blocks == 0 || blocks == len(in.Tasks) {
			t.Fatalf("%d of %d tasks have a block, want some but not all", blocks, len(in.Tasks))
		}
		requireBlocksBitwise(t, in, seedLimit)
	}
}

// TestTaskBlocksTruncatedPools runs FuzzTaskBlocks' comparison on pools
// that SeedLimit truncates, and checks that some task's pool did exceed
// the limit.
func TestTaskBlocksTruncatedPools(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	in := randomInstance(r, 250, 4, 3)
	over := false
	for _, c := range in.TaskCand {
		over = over || len(c) > 6
	}
	if !over {
		t.Fatal("no task has more than 6 candidates")
	}
	in.Quality = paletteTable(r, len(in.Workers))
	ctx := context.Background()
	s := &TPG{SeedLimit: 6}
	want, err := s.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	in.FillBlocks(context.Background())
	got, err := (&TPG{SeedLimit: 6}).Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, in, got, want, "TPG/SeedLimit=6 over blocks")
}

// TestUpperOverBlocks computes every worker's q̂ and UPPER over task
// blocks and requires the bits of the same instance without blocks, at
// B from 2 to 21 (churn's B = 10 and B = 18–21 among them), over random
// candidate graphs whose shared candidates leave some tasks without a
// block and over TestTaskBlocksPartial's dense shape. It also requires the
// exact set of pairs the model is asked for: one call for each
// co-candidate a worker first meets in a list without a block, and none
// for a worker with fewer than B−1 co-candidates or with a block at
// every candidate task. Each kind of worker must occur.
func TestUpperOverBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var blocked, mixed, short int
	check := func(in *model.Instance) {
		t.Helper()
		tq := in.Quality.(*tableQuality)
		in.Blocks = nil
		var q QHat
		q.Reset(in)
		want := make([]float64, len(in.Workers))
		for w := range want {
			want[w] = q.Of(w)
		}
		wantUpper := Upper(in)

		in.FillBlocks(context.Background())
		wantCalls := map[[2]int]int{}
		for w := range in.Workers {
			peers, fromModel := map[int]bool{}, []int(nil)
			all := true
			for _, tk := range in.WorkerCand[w] {
				hasBlock := in.TaskBlock(tk) != nil
				all = all && hasBlock
				for _, k := range in.TaskCand[tk] {
					if k != w && !peers[k] {
						peers[k] = true
						if !hasBlock {
							fromModel = append(fromModel, k)
						}
					}
				}
			}
			switch {
			case len(peers) < in.B-1:
				if !all {
					short++
				}
				continue
			case all:
				blocked++
			default:
				mixed++
			}
			for _, k := range fromModel {
				wantCalls[[2]int{w, k}]++
			}
		}

		tq.calls = map[[2]int]int{}
		q.Reset(in)
		for w := range want {
			if got := q.Of(w); math.Float64bits(got) != math.Float64bits(want[w]) {
				t.Fatalf("B=%d: q̂ of worker %d over blocks %v (%#x), over the model %v (%#x)",
					in.B, w, got, math.Float64bits(got), want[w], math.Float64bits(want[w]))
			}
		}
		if got := Upper(in); math.Float64bits(got) != math.Float64bits(wantUpper) {
			t.Fatalf("B=%d: Upper over blocks %v (%#x), over the model %v (%#x)",
				in.B, got, math.Float64bits(got), wantUpper, math.Float64bits(wantUpper))
		}
		// q.Of and Upper each read every pair once.
		for p, n := range wantCalls {
			wantCalls[p] = 2 * n
		}
		for _, m := range []map[[2]int]int{tq.calls, wantCalls} {
			for p := range m {
				if got, want := tq.calls[p], wantCalls[p]; got != want {
					t.Fatalf("B=%d: the model was asked for pair %v %d times, want %d", in.B, p, got, want)
				}
			}
		}
		tq.calls = nil
	}
	for trial := 0; trial < 200; trial++ {
		b := []int{3, 10, 18, 19, 20, 21}[trial%6]
		if trial%5 == 0 {
			b = 2 + r.Intn(20)
		}
		check(boundsInstance(r, 10+r.Intn(40), 1+r.Intn(15), b, 0.1+r.Float64()*0.5, trial, true))
	}
	for _, b := range []int{3, 10, 18, 21} {
		in := randomInstance(r, 30, 40, b)
		for i := range in.Workers {
			in.Workers[i].Radius, in.Workers[i].Speed = 2, 10
		}
		in.BuildCandidates(model.IndexGrid)
		in.Quality = paletteTable(r, len(in.Workers))
		check(in)
	}
	t.Logf("workers with ≥ B−1 co-candidates: %d with a block at every task, %d without; %d with fewer and a list without a block",
		blocked, mixed, short)
	if blocked == 0 || mixed == 0 || short == 0 {
		t.Fatal("some kind of worker never occurred")
	}
}
