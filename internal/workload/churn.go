package workload

import (
	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/stats"
)

// ChurnParams generates the incremental-engine benchmark workload: a grid
// of isolated sites (spacing exceeds any worker's reach, so the validity
// graph decomposes into one component per site) where most sites are
// permanently stuck — one worker short of the quorum B, holding a handful
// of long-deadline tasks that can never dispatch — and a small set of
// active sites receives a fresh quorum of workers and a short-deadline
// task every round. Round over round, only the active sites' components
// change: a from-scratch solver rebuilds and re-solves every site each
// round, while the incremental engine re-solves just the active ones and
// carries the stuck majority forward.
type ChurnParams struct {
	// GridSize is the number of sites per axis (default 24; keep it below
	// 50 so site spacing stays above twice the worker radius).
	GridSize int
	// StuckWorkers is how many workers idle at every site (default B-1, so
	// stuck sites can never gather a quorum: every best-response move gains
	// zero and the site never dispatches and never changes).
	StuckWorkers int
	// StuckTasks is how many immortal tasks every site holds (default 10).
	// Together with StuckWorkers it sets how much work a from-scratch
	// solver re-spends per stuck site each round.
	StuckTasks int
	// ActiveEvery makes one site in every ActiveEvery sites active
	// (default 50).
	ActiveEvery int
	// ActiveWorkers is how many fresh workers arrive at each active site
	// per round (default B, so a dispatch-sized cohort lands every round
	// and keeps the component churning and contended).
	ActiveWorkers int
	// Sigma is the per-site location jitter and Radius the uniform worker
	// radius; defaults (0.002, 0.01) keep every site internally connected
	// and sites mutually isolated at GridSize < 50.
	Sigma  float64
	Radius float64
	// Speed is the uniform worker speed (default 0.05).
	Speed float64
	// Capacity is a_j for every task and B the platform quorum (defaults
	// 10 and 10: stuck sites idle one worker short, active sites dispatch
	// as soon as a fresh quorum lands).
	Capacity int
	B        int
	// StuckHorizon is the stuck tasks' relative deadline (default 1e6 —
	// effectively immortal); ActiveHorizon the active tasks' (default 2.5,
	// so undispatched active tasks expire and exercise that path).
	StuckHorizon  float64
	ActiveHorizon float64
	Seed          int64
}

// WithChurnDefaults fills zero fields with the benchmark defaults.
func (p ChurnParams) WithChurnDefaults() ChurnParams {
	if p.GridSize == 0 {
		p.GridSize = 24
	}
	if p.Capacity == 0 {
		p.Capacity = 10
	}
	if p.B == 0 {
		p.B = 10
	}
	if p.StuckWorkers == 0 {
		p.StuckWorkers = p.B - 1
	}
	if p.StuckTasks == 0 {
		p.StuckTasks = 10
	}
	if p.ActiveEvery == 0 {
		p.ActiveEvery = 50
	}
	if p.ActiveWorkers == 0 {
		p.ActiveWorkers = p.B
	}
	if p.Sigma == 0 {
		p.Sigma = 0.002
	}
	if p.Radius == 0 {
		p.Radius = 0.01
	}
	if p.Speed == 0 {
		p.Speed = 0.05
	}
	if p.StuckHorizon == 0 {
		p.StuckHorizon = 1e6
	}
	if p.ActiveHorizon == 0 {
		p.ActiveHorizon = 2.5
	}
	return p
}

// Churn is the instantiated workload. Per-round output is a pure function
// of the round number, so a simulation can be replayed bit-for-bit.
type Churn struct {
	p       ChurnParams
	sites   []geo.Point
	active  []int // indices into sites
	baseW   int   // workers emitted at round 0
	baseT   int   // tasks emitted at round 0
	blobber BlobParams
}

// NewChurn lays out the sites and picks every ActiveEvery-th as active.
func NewChurn(p ChurnParams) *Churn {
	p = p.WithChurnDefaults()
	c := &Churn{p: p, blobber: BlobParams{GridSize: p.GridSize, Sigma: p.Sigma}}
	all, _ := c.blobber.sites()
	c.sites = all
	for i := range all {
		if i%p.ActiveEvery == 0 {
			c.active = append(c.active, i)
		}
	}
	c.baseW = len(c.sites)*p.StuckWorkers + len(c.active)*p.ActiveWorkers
	c.baseT = len(c.sites)*p.StuckTasks + len(c.active)
	return c
}

// B returns the platform quorum the workload was built for.
func (c *Churn) B() int { return c.p.B }

// MaxWorkers bounds the worker IDs a simulation of the given length can
// see, sizing the quality model.
func (c *Churn) MaxWorkers(rounds int) int {
	return c.baseW + rounds*len(c.active)*c.p.ActiveWorkers
}

// WorkersAt returns round r's worker arrivals: at round 0 the stuck
// population plus a quorum per active site, afterwards a fresh quorum per
// active site. IDs are sequential across rounds.
func (c *Churn) WorkersAt(round int) []model.Worker {
	rng := stats.NewRNG(c.p.Seed + 2*int64(round))
	mk := func(id int, site geo.Point) model.Worker {
		return model.Worker{
			ID: id, Loc: c.blobber.jitter(rng, site),
			Speed: c.p.Speed, Radius: c.p.Radius, Arrive: float64(round),
		}
	}
	var ws []model.Worker
	if round == 0 {
		id := 0
		for _, site := range c.sites {
			for k := 0; k < c.p.StuckWorkers; k++ {
				ws = append(ws, mk(id, site))
				id++
			}
		}
		for _, si := range c.active {
			for k := 0; k < c.p.ActiveWorkers; k++ {
				ws = append(ws, mk(id, c.sites[si]))
				id++
			}
		}
		return ws
	}
	base := c.baseW + (round-1)*len(c.active)*c.p.ActiveWorkers
	id := base
	for _, si := range c.active {
		for k := 0; k < c.p.ActiveWorkers; k++ {
			ws = append(ws, mk(id, c.sites[si]))
			id++
		}
	}
	return ws
}

// TasksAt returns round r's task arrivals: at round 0 the immortal stuck
// tasks per site plus one short-lived task per active site, afterwards one
// short-lived task per active site.
func (c *Churn) TasksAt(round int) []model.Task {
	rng := stats.NewRNG(c.p.Seed + 2*int64(round) + 1)
	mk := func(id int, site geo.Point, horizon float64) model.Task {
		return model.Task{
			ID: id, Loc: c.blobber.jitter(rng, site), Capacity: c.p.Capacity,
			Created: float64(round), Deadline: float64(round) + horizon,
		}
	}
	var ts []model.Task
	if round == 0 {
		id := 0
		for _, site := range c.sites {
			for k := 0; k < c.p.StuckTasks; k++ {
				ts = append(ts, mk(id, site, c.p.StuckHorizon))
				id++
			}
		}
		for _, si := range c.active {
			ts = append(ts, mk(id, c.sites[si], c.p.ActiveHorizon))
			id++
		}
		return ts
	}
	base := c.baseT + (round-1)*len(c.active)
	for i, si := range c.active {
		ts = append(ts, mk(base+i, c.sites[si], c.p.ActiveHorizon))
	}
	return ts
}
