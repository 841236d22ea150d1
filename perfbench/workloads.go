package main

import (
	"math/rand"

	"casc/internal/batch"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/stats"
)

// Table II defaults shared by stream-scratch and serve-http: speeds in
// [1,5]% and radii in [5,10]% of the space, a_j = 5, B = 3, τ = 3.
const (
	paperCapacity = 5
	paperB        = 3
	paperTau      = 3
)

// paperWorker draws a UNIF worker with Table II speed and radius.
func paperWorker(r *rand.Rand, id int, arrive float64) model.Worker {
	return model.Worker{
		ID:     id,
		Loc:    geo.Pt(r.Float64(), r.Float64()),
		Speed:  stats.TruncGaussian(r, 0.01, 0.05, stats.PaperSigma),
		Radius: stats.TruncGaussian(r, 0.05, 0.10, stats.PaperSigma),
		Arrive: arrive,
	}
}

// Stream-scratch arrival rates per round and the worker patience that,
// together with returning workers, keeps the live pool stationary.
const (
	streamWorkersPerRound = 250
	streamTasksPerRound   = 125
	streamPatience        = 5
)

// streamFeed is the paper's Table II setting run as a stream: Poisson
// numbers of UNIF workers and tasks arrive every round, tasks expire τ
// rounds after they are posted.
func streamFeed(seed int64, rounds int) *feed {
	rng := stats.NewRNG(seed)
	f := &feed{}
	wid, tid := 0, 0
	for r := 0; r < rounds; r++ {
		now := float64(r)
		var ws []model.Worker
		for i := stats.Poisson(rng, streamWorkersPerRound); i > 0; i-- {
			ws = append(ws, paperWorker(rng, wid, now))
			wid++
		}
		var ts []model.Task
		for i := stats.Poisson(rng, streamTasksPerRound); i > 0; i-- {
			ts = append(ts, model.Task{
				ID: tid, Loc: geo.Pt(rng.Float64(), rng.Float64()), Capacity: paperCapacity,
				Created: now, Deadline: now + paperTau,
			})
			tid++
		}
		f.workers = append(f.workers, ws)
		f.tasks = append(f.tasks, ts)
	}
	f.quality = coop.Synthetic{N: wid, Seed: uint64(seed)}
	f.index()
	return f
}

var streamScratch = &batchSpec{
	name: "stream-scratch",
	feed: streamFeed,
	configure: func(cfg *batch.Config) {
		cfg.B = paperB
		cfg.Patience = streamPatience
	},
	warm:         15,
	roundsPerSec: 20,
	setups:       9,
}

// Churn shape: a grid of isolated sites. Stuck sites hold B−1 workers and
// immortal tasks, so they never dispatch and their components stay clean;
// one site in churnActiveEvery is active, with a fixed worker population
// that is dispatched, serves, and returns, and a Poisson number of
// short-lived tasks every round. The population never grows, so the pool is
// stationary. A fixed task count per round would lock every active site
// into the same two-round serve-and-return cycle and split the round times
// into two modes, with the median between them.
const (
	churnGrid          = 16
	churnActiveEvery   = 16
	churnB             = 10
	churnStuckTasks    = 10
	churnActiveWorkers = 30
	churnTasksPerRound = 2
	churnActiveHorizon = 2.5
	churnStuckHorizon  = 1e6
	churnSigma         = 0.002
	churnRadius        = 0.01
	churnSpeed         = 0.05
	churnWarmRounds    = 20
	churnRoundsPerSec  = 70
	churnSetups        = 9
)

// churnFeed lays out the sites and generates the churn arrivals: the whole
// population at round 0, then only the active sites' tasks.
func churnFeed(seed int64, rounds int) *feed {
	rng := stats.NewRNG(seed)
	var sites []geo.Point
	for i := 0; i < churnGrid; i++ {
		for j := 0; j < churnGrid; j++ {
			sites = append(sites, geo.Pt((float64(i)+0.5)/churnGrid, (float64(j)+0.5)/churnGrid))
		}
	}
	near := func(p geo.Point) geo.Point {
		return geo.Pt(p.X+rng.NormFloat64()*churnSigma, p.Y+rng.NormFloat64()*churnSigma)
	}
	var active []geo.Point
	f := &feed{}
	var ws []model.Worker
	var ts []model.Task
	for si, site := range sites {
		n := churnB - 1
		if si%churnActiveEvery == 0 {
			n = churnActiveWorkers
			active = append(active, site)
		}
		for k := 0; k < n; k++ {
			ws = append(ws, model.Worker{ID: len(ws), Loc: near(site), Speed: churnSpeed, Radius: churnRadius})
		}
		if si%churnActiveEvery != 0 {
			for k := 0; k < churnStuckTasks; k++ {
				ts = append(ts, model.Task{ID: len(ts), Loc: near(site), Capacity: churnB, Deadline: churnStuckHorizon})
			}
		}
	}
	tid := len(ts)
	for r := 0; r < rounds; r++ {
		now := float64(r)
		for _, site := range active {
			for k := stats.Poisson(rng, churnTasksPerRound); k > 0; k-- {
				ts = append(ts, model.Task{ID: tid, Loc: near(site), Capacity: churnB, Created: now, Deadline: now + churnActiveHorizon})
				tid++
			}
		}
		f.workers = append(f.workers, ws)
		f.tasks = append(f.tasks, ts)
		ws, ts = nil, nil
	}
	f.quality = coop.Synthetic{N: len(f.workers[0]), Seed: uint64(seed)}
	f.index()
	return f
}

var churnIncremental = &batchSpec{
	name: "churn-incremental",
	feed: churnFeed,
	configure: func(cfg *batch.Config) {
		cfg.B = churnB
	},
	incremental:  true,
	warm:         churnWarmRounds,
	roundsPerSec: churnRoundsPerSec,
	setups:       churnSetups,
}
