package coop

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"casc/internal/geo"
	"casc/internal/model"
)

// refHistory is the map-keyed estimator History replaced: one record per
// packed pair, accumulated in the order the ratings arrive.
type refHistory struct {
	n            int
	alpha, omega float64
	recs         map[uint64]PairRecord
}

func (r *refHistory) add(i, k int, sum float64, count int) {
	if i > k {
		i, k = k, i
	}
	key := keyOf(i, k)
	rec, ok := r.recs[key]
	if !ok {
		rec = PairRecord{I: i, K: k}
	}
	rec.Sum += sum
	rec.Count += count
	r.recs[key] = rec
}

func (r *refHistory) record(i, k int, score float64) { r.add(i, k, score, 1) }

func (r *refHistory) importRecs(recs []PairRecord) bool {
	for _, x := range recs {
		if x.I == x.K || uint64(x.I) > maxWorker || uint64(x.K) > maxWorker ||
			x.Count < 0 || math.IsNaN(x.Sum) || x.Sum < 0 || x.Sum > float64(x.Count) {
			return false
		}
	}
	for _, x := range recs {
		r.add(x.I, x.K, x.Sum, x.Count)
		r.n = max(r.n, x.I+1, x.K+1)
	}
	return true
}

func (r *refHistory) quality(i, k int) float64 {
	if i == k {
		return 0
	}
	rec := r.recs[keyOf(i, k)]
	hist := r.omega
	if rec.Count > 0 {
		hist = rec.Sum / float64(rec.Count)
	}
	return r.alpha*r.omega + (1-r.alpha)*hist
}

func (r *refHistory) export() []PairRecord {
	out := make([]PairRecord, 0, len(r.recs))
	for _, rec := range r.recs {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b PairRecord) int {
		if a.I != b.I {
			return a.I - b.I
		}
		return a.K - b.K
	})
	return out
}

// FuzzHistoryRows runs Record, RecordGroup and Import ops against History
// and the map-keyed reference (a RecordGroup naming a worker twice must
// panic and record nothing), then checks every read: Quality and
// SharedTasks over all pairs of the IDs in play, Export byte-identical as
// JSON, and QualityBlock Float64bits-equal to Quality on ascending ID
// sets. IDs come from a pool that reaches 1<<32−1; a fan op gives one
// worker a row of 300 partners, of which the reads check every tenth, so
// the row is far longer than any block's list. Imports carry Count: 0
// records and rejected batches.
func FuzzHistoryRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 4, 2, 100, 0, 3, 4, 50})
	f.Add([]byte{0, 0, 1, 2, 200, 1, 3, 4, 5, 6, 90, 3, 7, 1, 5, 2, 30, 4, 0, 9})
	f.Add([]byte{1, 3, 17, 2, 4, 0, 17, 18, 19, 255, 2, 16, 17, 1, 0, 0, 5, 6, 7})
	f.Add([]byte{2, 2, 5, 0, 0, 2, 5, 0, 1, 3, 15, 40, 77, 4, 2, 9, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		pool := []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1 << 31, maxWorker - 2, maxWorker - 1, maxWorker}
		params := [][2]float64{{0.5, 0.5}, {0.3, 0.7}, {0, 1}, {1, 0.2}}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		id := func() int { return pool[next()%len(pool)] }
		score := func() float64 {
			switch b := next(); b {
			case 254:
				return math.Copysign(0, -1)
			case 253:
				return 1.0 / 3
			default:
				return float64(b) / 255
			}
		}
		p := params[next()%len(params)]
		h := NewHistory(0, p[0], p[1])
		ref := &refHistory{alpha: p[0], omega: p[1], recs: map[uint64]PairRecord{}}
		seen := map[int]bool{}
		for _, x := range pool {
			seen[x] = true
		}
		for len(ops) > 0 {
			switch next() % 4 {
			case 0: // Record
				i, k := id(), id()
				if i == k {
					continue
				}
				s := score()
				h.Record(i, k, s)
				ref.record(i, k, s)
			case 1: // RecordGroup over pool IDs; a repeated ID panics first
				var g []int
				for n := 2 + next()%4; n > 0 && len(ops) > 0; n-- {
					g = append(g, id())
				}
				s, dup := score(), false
				for a := range g {
					dup = dup || slices.Contains(g[a+1:], g[a])
				}
				if dup {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("RecordGroup(%v) did not panic", g)
							}
						}()
						h.RecordGroup(g, s)
					}()
					continue
				}
				h.RecordGroup(g, s)
				for a := range g {
					for b := a + 1; b < len(g); b++ {
						ref.record(g[a], g[b], s)
					}
				}
			case 2: // Import, Count: 0 records and bad batches included
				var recs []PairRecord
				for n := 1 + next()%4; n > 0 && len(ops) > 0; n-- {
					c := next() % 4
					rec := PairRecord{I: id(), K: id(), Count: c, Sum: float64(c) * score()}
					if next()%16 == 0 {
						rec.Count = -1
					}
					recs = append(recs, rec)
				}
				err := h.Import(recs)
				if ok := ref.importRecs(recs); ok != (err == nil) {
					t.Fatalf("Import(%+v): error %v, reference accepts %v", recs, err, ok)
				}
			case 3: // fan: a row far longer than any block's list
				w, s := id(), score()
				for j := 0; j < 300; j++ {
					k := 1000 + 7*j
					h.Record(w, k, s)
					ref.record(w, k, s)
					if j%10 == 0 {
						seen[k] = true
					}
				}
			}
		}

		ids := make([]int, 0, len(seen))
		for x := range seen {
			ids = append(ids, x)
		}
		slices.Sort(ids)
		if got, want := h.NumWorkers(), ref.n; got != want {
			t.Fatalf("NumWorkers %d, reference %d", got, want)
		}
		for _, i := range ids {
			for _, k := range ids {
				if got, want := h.Quality(i, k), ref.quality(i, k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Quality(%d, %d) = %v, reference %v", i, k, got, want)
				}
				if i != k {
					if got, want := h.SharedTasks(i, k), ref.recs[keyOf(i, k)].Count; got != want {
						t.Fatalf("SharedTasks(%d, %d) = %d, reference %d", i, k, got, want)
					}
				}
			}
		}
		got, err := json.Marshal(h.Export())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref.export())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Export\n%s\nreference\n%s", got, want)
		}

		r := rand.New(rand.NewSource(int64(len(ids))))
		for trial := 0; trial < 8; trial++ {
			var set []int
			for _, x := range ids {
				if r.Intn(4) == 0 || trial == 0 {
					set = append(set, x)
				}
			}
			n := len(set)
			dst := make([]float64, n*n)
			for x := range dst {
				dst[x] = math.NaN()
			}
			h.QualityBlock(set, dst)
			for a, x := range set {
				for b, y := range set {
					if q := h.Quality(x, y); math.Float64bits(dst[a*n+b]) != math.Float64bits(q) {
						t.Fatalf("QualityBlock(%v) entry (%d, %d) = %v, Quality %v", set, x, y, dst[a*n+b], q)
					}
				}
			}
		}
	})
}

// TestHistoryHighIDsStaySmall records, imports and reads pairs naming
// workers next to 1<<32−1. The rows are keyed sparsely, so the history
// must allocate kilobytes, not memory in proportion to the IDs.
func TestHistoryHighIDsStaySmall(t *testing.T) {
	h := NewHistory(0, 0.5, 0.5)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.Record(0, maxWorker, 0.75)
	h.Record(maxWorker, maxWorker-1, 0.25)
	if err := h.Import([]PairRecord{{I: maxWorker, K: 1, Sum: 1, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, maxWorker - 1, maxWorker}
	dst := make([]float64, len(ids)*len(ids))
	h.QualityBlock(ids, dst)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("three records and a block naming worker %d allocated %d bytes", maxWorker, grew)
	}
	if h.NumWorkers() != maxWorker+1 {
		t.Fatalf("NumWorkers %d, want %d", h.NumWorkers(), maxWorker+1)
	}
	for a, x := range ids {
		for b, y := range ids {
			if q := h.Quality(x, y); math.Float64bits(dst[a*len(ids)+b]) != math.Float64bits(q) {
				t.Fatalf("block entry (%d, %d) = %v, Quality %v", x, y, dst[a*len(ids)+b], q)
			}
		}
	}
	if h.Quality(0, maxWorker) != 0.5*0.5+0.5*0.75 || h.Quality(1, maxWorker) != 0.5 {
		t.Fatalf("Quality(0, %d) = %v, Quality(1, %d) = %v", maxWorker, h.Quality(0, maxWorker), maxWorker, h.Quality(1, maxWorker))
	}
}

// BenchmarkHistoryRecordLongRow records into one worker's row of 10 000
// partners. "update" rates a pair the row holds: a binary search. "insert"
// rates a new pair at a random place in the row, moving the partners above
// it; the row is restored to 10 000 partners every 1 000 inserts, outside
// the timer.
func BenchmarkHistoryRecordLongRow(b *testing.B) {
	const row = 10000
	fresh := func() *History {
		h := NewHistory(0, 0.5, 0.5)
		for j := 1; j <= row; j++ {
			h.Record(0, 2*j, 0.5)
		}
		return h
	}
	r := rand.New(rand.NewSource(1))
	b.Run("update", func(b *testing.B) {
		h := fresh()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Record(0, 2+2*r.Intn(row), 0.5)
		}
		b.ReportMetric(float64(len(h.rows[0].k)), "row")
	})
	b.Run("insert", func(b *testing.B) {
		h := fresh()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1000 == 999 {
				b.StopTimer()
				h = fresh()
				b.StartTimer()
			}
			h.Record(0, 1+2*r.Intn(row), 0.5)
		}
		b.ReportMetric(row, "row")
	})
}

// historyRound returns a round of nW of the registered workers, in
// ascending ID order, and nT tasks, with its quality a Subset of a
// History holding rated pairs: about a fifth of the round's co-candidate
// pairs, then pairs of workers at random. It also returns the History and
// the round's worker IDs.
func historyRound(registered, nW, nT, rated int) (*model.Instance, *History, []int) {
	r := rand.New(rand.NewSource(1))
	ids := r.Perm(registered)[:nW]
	slices.Sort(ids)
	in := &model.Instance{B: 3, Now: 1}
	for _, id := range ids {
		in.Workers = append(in.Workers, model.Worker{ID: id, Loc: geo.Pt(r.Float64(), r.Float64()), Speed: 0.05, Radius: 0.08})
	}
	for j := 0; j < nT; j++ {
		in.Tasks = append(in.Tasks, model.Task{ID: j, Loc: geo.Pt(r.Float64(), r.Float64()), Capacity: 5, Deadline: 3})
	}
	in.BuildCandidates(model.IndexGrid)
	h := NewHistory(registered, 0.5, 0.5)
	pairs := 0
	rate := func(i, k int) {
		if i != k && h.SharedTasks(i, k) == 0 {
			h.Record(i, k, r.Float64())
			pairs++
		}
	}
	for _, c := range in.TaskCand {
		for a := range c {
			for x := a + 1; x < len(c); x++ {
				if r.Intn(5) == 0 {
					rate(ids[c[a]], ids[c[x]])
				}
			}
		}
	}
	for pairs < rated {
		rate(r.Intn(registered), r.Intn(registered))
	}
	in.Quality = NewSubset(h, ids)
	return in, h, ids
}

// TestFillBlocksAllocsFlat: a fill through a fresh Subset, as each serving
// round makes one, and through a sub-instance of it, as each shard's
// solve does, allocates the same at 40 and at 160 tasks: the mapped IDs
// of every task go into one scratch slice per view.
func TestFillBlocksAllocsFlat(t *testing.T) {
	allocs := func(nT int, sub bool) float64 {
		in, h, ids := historyRound(600, 400, nT, 5000)
		var all []int
		for w := range in.Workers {
			all = append(all, w)
		}
		var tasks []int
		for j := range in.Tasks {
			tasks = append(tasks, j)
		}
		return testing.AllocsPerRun(10, func() {
			in.Quality = NewSubset(h, ids)
			fill := in
			if sub {
				fill, _ = in.SubInstance(all, tasks)
			}
			fill.FillBlocks(context.Background())
		})
	}
	for _, sub := range []bool{false, true} {
		small, large := allocs(40, sub), allocs(160, sub)
		if small != large {
			t.Fatalf("sub-instance %v: a fill allocates %.0f times at 40 tasks and %.0f at 160", sub, small, large)
		}
	}
}

// BenchmarkFillBlocksHistory fills one round's task blocks from a History
// at serve-http's shape: 2 000 registered workers, of which 1 300 are in
// the round, 150 tasks with ≈ 25 candidates each, and ≈ 80 k rated pairs.
// About a fifth of the round's co-candidate pairs are rated, as in
// serve-http, and the rest of the ratings pair workers at random. It
// reports the block entries filled and the row merge steps taken per
// fill, work counts that repeat exactly for a given tree.
func BenchmarkFillBlocksHistory(b *testing.B) {
	const nT = 150
	in, h, ids := historyRound(2000, 1300, nT, 80000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.FillBlocks(context.Background())
	}
	b.StopTimer()
	entries, steps := 0, 0
	for t, c := range in.TaskCand {
		q := in.TaskBlock(t)
		if q == nil {
			continue
		}
		g := make([]int, len(c))
		for x, w := range c {
			g[x] = ids[w]
		}
		entries += len(q)
		steps += h.block(g, q)
	}
	b.ReportMetric(float64(entries), "entries/op")
	b.ReportMetric(float64(steps), "merge_steps/op")
	b.ReportMetric(float64(in.NumValidPairs())/nT, "candidates/task")
}
