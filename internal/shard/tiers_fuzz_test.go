package shard

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"casc/internal/geo"
	"casc/internal/server"
)

// tier is the Go API the serving tiers share, with RunBatch reduced to the
// platform's result so rounds compare field by field.
type tier struct {
	name     string
	register func(geo.Point, float64, float64) (int, error)
	post     func(geo.Point, int, float64) (int, error)
	batch    func(string) (*server.BatchResult, error)
	rate     func(int, float64) error
	quality  func(int, int) (float64, error)
}

func platformTier(t *testing.T, b int) tier {
	p, err := server.NewPlatform(server.Config{B: b})
	if err != nil {
		t.Fatal(err)
	}
	return tier{
		name:     "platform",
		register: p.RegisterWorker,
		post:     p.PostTask,
		batch: func(solver string) (*server.BatchResult, error) {
			return p.RunBatch(context.Background(), solver)
		},
		rate:    p.RateTask,
		quality: p.Quality,
	}
}

func clusterTier(t *testing.T, name string, cfg Config) tier {
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tier{
		name:     name,
		register: c.RegisterWorker,
		post:     c.PostTask,
		batch: func(solver string) (*server.BatchResult, error) {
			res, err := c.RunBatch(context.Background(), solver)
			if err != nil {
				return nil, err
			}
			return &res.BatchResult, nil
		},
		rate:    c.RateTask,
		quality: c.Quality,
	}
}

// tierOps encodes a readable op list as fuzz bytes for the seed corpus.
func tierOps(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// FuzzServingTiers is the differential check between the serving tiers:
// one op stream decoded from the fuzz bytes — register, post, batch with GT
// or TPG, and ratings b/255 of dispatched, already rated and never
// dispatched tasks — goes through the Go API of the unsharded platform, a
// K=1 cluster, a K=3 cluster and a K=3 incremental cluster. Every op must
// succeed alike, or fail alike with the same message past the package
// prefix, on all four;
// every round must dispatch the same pairs with bitwise-equal score, upper
// and expired count; and at the end every worker pair's quality estimate
// must agree to the bit. Arbitrary ratings make each pair's history sum
// order-sensitive, so any per-shard split of what the cluster learns shows.
// A first byte of 0xF0 or more is a marker: it is skipped, and radius bytes
// then read as r/255 like positions, so a pair can sit exactly on a
// working-disc edge. Inputs without the marker replay as they always did.
func FuzzServingTiers(f *testing.F) {
	const (
		b          = 3
		maxOps     = 160
		maxWorkers = 40
	)
	regR := func(x, y, r byte) []byte { return []byte{0, x, y, 200, r} }
	reg := func(x, y byte) []byte { return regR(x, y, 60) }
	post := func(x, y, capDl byte) []byte { return []byte{1, x, y, capDl} }
	batch := func(solver byte) []byte { return []byte{2, solver} }
	rate := func(pick, score byte) []byte { return []byte{3, pick, score} }
	f.Add(tierOps(reg(120, 120), reg(130, 125), reg(125, 135), reg(140, 128),
		post(128, 128, 0), batch(0), rate(0, 77), batch(1)))
	// After the one rating, pick 1 rates a task never dispatched and pick
	// 0 rates the rated task again.
	f.Add(tierOps(reg(120, 120), reg(130, 125), reg(125, 135),
		post(128, 128, 0), batch(0), rate(0, 77), rate(1, 10), rate(0, 10), batch(1)))
	f.Add(tierOps(reg(120, 120), reg(130, 125), reg(125, 135), reg(140, 128), reg(118, 140),
		reg(60, 60), reg(70, 64), reg(64, 70), reg(190, 60), reg(200, 66), reg(194, 70),
		post(128, 128, 1), post(65, 65, 2), post(196, 64, 5), batch(0),
		rate(0, 200), rate(0, 13), rate(0, 254),
		post(128, 128, 0), post(196, 64, 4), batch(1), rate(1, 101), batch(0)))
	f.Add(tierOps(reg(10, 245), reg(20, 240), reg(12, 230), post(15, 240, 3), batch(1), batch(1),
		rate(5, 255), rate(0, 0), reg(127, 127), post(127, 127, 7), batch(0)))
	// Three workers on the shard 0 / shard 1 boundary of K=3 serve tasks
	// below, above and below it again; each pair's ratings 20, 82 and 204
	// (/255) then sum to different bits in arrival order than grouped by
	// the shard of each task.
	f.Add(tierOps(reg(128, 85), reg(130, 86), reg(126, 84),
		post(128, 80, 0), batch(0), rate(0, 20),
		post(128, 90, 0), batch(0), rate(0, 82),
		post(128, 80, 0), batch(1), rate(0, 204), post(128, 82, 0), batch(0)))
	// Marked: three workers at the origin with radius 25/255 and a task at
	// (15, 20)/255. Hypot of the offsets is exactly the radius, while
	// their squares sum to more than its square.
	f.Add(tierOps([]byte{0xF0}, regR(0, 0, 25), regR(0, 0, 25), regR(0, 0, 25), post(15, 20, 0), batch(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tiers := []tier{
			platformTier(t, b),
			clusterTier(t, "K=1", Config{K: 1, B: b}),
			clusterTier(t, "K=3", Config{K: 3, B: b}),
			clusterTier(t, "K=3 incremental", Config{K: 3, B: b, Incremental: true}),
		}
		// next returns the next fuzz byte, or 0 once the input is spent.
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		unit := func(v byte) float64 { return float64(v) / 255 }
		radiusOf := func(v byte) float64 { return 0.05 + 0.25*unit(v) }
		if len(data) > 0 && data[0] >= 0xF0 {
			data = data[1:]
			radiusOf = unit
		}
		var (
			now     float64 // rounds completed; every tier's default clock
			workers int
			posted  int
			open    []int // dispatched tasks not yet rated
			rated   []int
		)
		// errText is err's message past its package prefix.
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			_, msg, _ := strings.Cut(err.Error(), ": ")
			return msg
		}
		// same runs op on every tier and requires the tiers to agree on
		// its error and integer result.
		same := func(what string, op func(tier) (int, error)) {
			t.Helper()
			var first int
			var firstErr error
			for i, tr := range tiers {
				v, err := op(tr)
				if i == 0 {
					first, firstErr = v, err
					continue
				}
				if (err == nil) != (firstErr == nil) || errText(err) != errText(firstErr) || v != first {
					t.Fatalf("%s: %s returned (%d, %v), %s (%d, %v)",
						what, tiers[0].name, first, firstErr, tr.name, v, err)
				}
			}
		}
		for n := 0; n < maxOps && len(data) > 0; n++ {
			switch next() % 4 {
			case 0:
				loc := geo.Pt(unit(next()), unit(next()))
				speed, radius := 0.2*unit(next()), radiusOf(next())
				if workers == maxWorkers {
					continue
				}
				same("register", func(tr tier) (int, error) { return tr.register(loc, speed, radius) })
				workers++
			case 1:
				loc := geo.Pt(unit(next()), unit(next()))
				v := next()
				capacity, deadline := b+int(v%3), now+1+float64(v/3%4)
				same("post", func(tr tier) (int, error) { return tr.post(loc, capacity, deadline) })
				posted++
			case 2:
				solver := "GT"
				if next()%2 == 1 {
					solver = "TPG"
				}
				var first *server.BatchResult
				for i, tr := range tiers {
					res, err := tr.batch(solver)
					if err != nil {
						t.Fatalf("%s round %v: %v", tr.name, now, err)
					}
					if i == 0 {
						first = res
						continue
					}
					if !reflect.DeepEqual(first.Pairs, res.Pairs) ||
						math.Float64bits(first.Score) != math.Float64bits(res.Score) ||
						math.Float64bits(first.Upper) != math.Float64bits(res.Upper) ||
						first.DispatchedTasks != res.DispatchedTasks || first.ExpiredTasks != res.ExpiredTasks {
						t.Fatalf("%s round %v: %s %+v, %s %+v", solver, now, tiers[0].name, *first, tr.name, *res)
					}
				}
				for i, p := range first.Pairs {
					if i == 0 || first.Pairs[i-1].Task != p.Task {
						open = append(open, p.Task)
					}
				}
				now++
			case 3:
				// pick chooses an unrated dispatched task, then a rated
				// one, then the next task ID, which was never dispatched.
				pick, score := int(next())%(len(open)+len(rated)+1), unit(next())
				task := posted
				switch {
				case pick < len(open):
					task = open[pick]
					open = append(open[:pick], open[pick+1:]...)
					rated = append(rated, task)
				case pick < len(open)+len(rated):
					task = rated[pick-len(open)]
				}
				same("rate", func(tr tier) (int, error) { return 0, tr.rate(task, score) })
			}
		}
		for i := 0; i < workers; i++ {
			for k := i + 1; k < workers; k++ {
				var want uint64
				for j, tr := range tiers {
					q, err := tr.quality(i, k)
					if err != nil {
						t.Fatalf("%s Quality(%d,%d): %v", tr.name, i, k, err)
					}
					if j == 0 {
						want = math.Float64bits(q)
					} else if math.Float64bits(q) != want {
						t.Fatalf("Quality(%d,%d): %s %v, %s %v",
							i, k, tiers[0].name, math.Float64frombits(want), tr.name, q)
					}
				}
			}
		}
	})
}
