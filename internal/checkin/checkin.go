// Package checkin synthesizes location-based-social-network check-in
// traces in the style of Gowalla and Foursquare, which §VI-A of the paper
// mentions mapping into the unit square. A trace is a sequence of
// (user, venue, time) visits with the empirical regularities of LBSN data:
// power-law venue popularity, per-user home locations with
// distance-decayed venue choice, and strong revisit bias. From a trace the
// package derives CA-SC batches the same way the Meetup pipeline does —
// workers at their most recent check-in, tasks at popular venues, and a
// co-visit cooperation quality (users who frequent the same venues are
// assumed to coordinate well, the check-in analogue of the Meetup
// co-group Jaccard).
package checkin

import (
	"fmt"
	"math/rand"
	"sort"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/stats"
)

// Config sizes the synthetic trace.
type Config struct {
	NumUsers  int
	NumVenues int
	// VisitsPerUser is the mean number of check-ins per user.
	VisitsPerUser int
	// RevisitBias is the probability a check-in repeats one of the user's
	// previous venues instead of exploring (Gowalla-like traces show
	// ~0.5-0.7).
	RevisitBias float64
	// Neighbourhoods is the number of geographic clusters.
	Neighbourhoods int
	Seed           int64
}

// Default is a city-scale trace comparable to the meetup substitute.
func Default() Config {
	return Config{
		NumUsers:       3000,
		NumVenues:      600,
		VisitsPerUser:  20,
		RevisitBias:    0.6,
		Neighbourhoods: 8,
		Seed:           7,
	}
}

// Visit is one check-in.
type Visit struct {
	User  int
	Venue int
	Time  float64
}

// Trace is a generated check-in dataset.
type Trace struct {
	VenueLocs []geo.Point
	HomeLocs  []geo.Point
	Visits    []Visit // sorted by Time
	// userVenueCounts[u] maps venue -> visit count.
	userVenueCounts []map[int]int
	// lastLoc[u] is the user's most recent check-in location.
	lastLoc []geo.Point
	// venuePopularity[v] counts total visits.
	venuePopularity []int
}

// Generate builds a trace. It panics on non-positive sizes.
func Generate(cfg Config) *Trace {
	if cfg.NumUsers <= 0 || cfg.NumVenues <= 0 || cfg.VisitsPerUser <= 0 {
		panic(fmt.Sprintf("checkin: bad config %+v", cfg))
	}
	if cfg.RevisitBias < 0 || cfg.RevisitBias >= 1 {
		panic("checkin: revisit bias outside [0,1)")
	}
	if cfg.Neighbourhoods <= 0 {
		cfg.Neighbourhoods = 1
	}
	r := stats.NewRNG(cfg.Seed)

	tr := &Trace{
		VenueLocs:       make([]geo.Point, cfg.NumVenues),
		HomeLocs:        make([]geo.Point, cfg.NumUsers),
		userVenueCounts: make([]map[int]int, cfg.NumUsers),
		lastLoc:         make([]geo.Point, cfg.NumUsers),
		venuePopularity: make([]int, cfg.NumVenues),
	}
	centers := make([]geo.Point, cfg.Neighbourhoods)
	for i := range centers {
		centers[i] = geo.Pt(0.15+0.7*r.Float64(), 0.15+0.7*r.Float64())
	}
	near := func(c geo.Point, sigma float64) geo.Point {
		x, y := stats.GaussianPoint(r, c.X, c.Y, sigma)
		return geo.Pt(x, y)
	}
	for v := range tr.VenueLocs {
		tr.VenueLocs[v] = near(centers[r.Intn(len(centers))], 0.05)
	}
	// Base venue attractiveness: zipf sizes reused as popularity weights.
	weights := stats.ZipfSizes(r, cfg.NumVenues, 1.1, 50)

	for u := range tr.HomeLocs {
		home := near(centers[r.Intn(len(centers))], 0.08)
		tr.HomeLocs[u] = home
		tr.lastLoc[u] = home
		tr.userVenueCounts[u] = make(map[int]int)
	}

	// Per-user candidate venues weighted by popularity / (distance decay).
	// Precompute a modest candidate list per user (nearest ~40 venues by
	// weighted attractiveness) to keep generation linear-ish.
	type scored struct {
		v int
		w float64
	}
	totalVisits := cfg.NumUsers * cfg.VisitsPerUser
	timeStep := 1.0 / float64(totalVisits)
	now := 0.0
	var visits []Visit
	cand := make([]scored, cfg.NumVenues)
	for u := 0; u < cfg.NumUsers; u++ {
		home := tr.HomeLocs[u]
		for v := range tr.VenueLocs {
			d := home.Dist(tr.VenueLocs[v])
			cand[v] = scored{v: v, w: float64(weights[v]) / (0.01 + d*d)}
		}
		sort.Slice(cand, func(a, b int) bool { return cand[a].w > cand[b].w })
		top := cand
		if len(top) > 40 {
			top = top[:40]
		}
		var totalW float64
		for _, c := range top {
			totalW += c.w
		}
		nVisits := 1 + r.Intn(2*cfg.VisitsPerUser) // mean ≈ VisitsPerUser
		var history []int
		for i := 0; i < nVisits; i++ {
			var venue int
			if len(history) > 0 && r.Float64() < cfg.RevisitBias {
				venue = history[r.Intn(len(history))]
			} else {
				x := r.Float64() * totalW
				venue = top[len(top)-1].v
				for _, c := range top {
					if x < c.w {
						venue = c.v
						break
					}
					x -= c.w
				}
			}
			history = append(history, venue)
			visits = append(visits, Visit{User: u, Venue: venue, Time: now})
			now += timeStep
			tr.userVenueCounts[u][venue]++
			tr.venuePopularity[venue]++
			tr.lastLoc[u] = tr.VenueLocs[venue]
		}
	}
	sort.Slice(visits, func(a, b int) bool { return visits[a].Time < visits[b].Time })
	tr.Visits = visits
	return tr
}

// NumUsers returns the user count.
func (tr *Trace) NumUsers() int { return len(tr.HomeLocs) }

// NumVenues returns the venue count.
func (tr *Trace) NumVenues() int { return len(tr.VenueLocs) }

// Quality returns the co-visit cooperation model: the paper's Equation 1
// with α = ω = 0.5 and the historical term replaced by the cosine-like
// overlap of visit-count vectors — users who frequent the same venues
// score high. Values lie in [0.25, 0.75] like the Meetup model.
func (tr *Trace) Quality() coop.Model {
	return coop.NewCached(&covisit{tr: tr})
}

type covisit struct{ tr *Trace }

func (c *covisit) NumWorkers() int { return c.tr.NumUsers() }

func (c *covisit) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	a, b := c.tr.userVenueCounts[i], c.tr.userVenueCounts[k]
	if len(a) > len(b) {
		a, b = b, a
	}
	var inter, totA, totB int
	for v, ca := range a {
		totA += ca
		if cb, ok := b[v]; ok {
			if ca < cb {
				inter += ca
			} else {
				inter += cb
			}
		}
	}
	for _, cb := range b {
		totB += cb
	}
	union := totA + totB - inter
	frac := 0.0
	if union > 0 {
		frac = float64(inter) / float64(union)
	}
	return 0.25 + 0.5*frac
}

// SampleParams configure one CA-SC batch drawn from the trace.
type SampleParams struct {
	NumWorkers    int
	NumTasks      int
	Capacity      int
	B             int
	SpeedRange    [2]float64
	RadiusRange   [2]float64
	RemainingTime float64
}

// DefaultSample mirrors Table II's bold defaults.
func DefaultSample() SampleParams {
	return SampleParams{
		NumWorkers:    1000,
		NumTasks:      500,
		Capacity:      5,
		B:             3,
		SpeedRange:    [2]float64{0.01, 0.05},
		RadiusRange:   [2]float64{0.05, 0.10},
		RemainingTime: 3,
	}
}

// Sample draws a CA-SC batch: m users become workers at their most recent
// check-in locations; n tasks appear at venues sampled proportionally to
// popularity (spatial tasks cluster where people actually go).
func (tr *Trace) Sample(r *rand.Rand, p SampleParams, now float64) (*model.Instance, error) {
	if p.NumWorkers > tr.NumUsers() {
		return nil, fmt.Errorf("checkin: want %d workers, trace has %d users", p.NumWorkers, tr.NumUsers())
	}
	if p.B < 2 || p.Capacity < p.B {
		return nil, fmt.Errorf("checkin: bad B=%d capacity=%d", p.B, p.Capacity)
	}
	users := stats.SampleWithoutReplacement(r, tr.NumUsers(), p.NumWorkers)
	in := &model.Instance{B: p.B, Now: now}
	for _, u := range users {
		in.Workers = append(in.Workers, model.Worker{
			ID:     u,
			Loc:    tr.lastLoc[u],
			Speed:  stats.TruncGaussian(r, p.SpeedRange[0], p.SpeedRange[1], stats.PaperSigma),
			Radius: stats.TruncGaussian(r, p.RadiusRange[0], p.RadiusRange[1], stats.PaperSigma),
			Arrive: now,
		})
	}
	// Popularity-weighted venue sampling (with replacement across distinct
	// tasks: two tasks can share a hot venue, as in real platforms).
	var totalPop int
	for _, c := range tr.venuePopularity {
		totalPop += c
	}
	for j := 0; j < p.NumTasks; j++ {
		venue := 0
		if totalPop > 0 {
			x := r.Intn(totalPop)
			for v, c := range tr.venuePopularity {
				if x < c {
					venue = v
					break
				}
				x -= c
			}
		} else {
			venue = r.Intn(tr.NumVenues())
		}
		in.Tasks = append(in.Tasks, model.Task{
			ID:       j,
			Loc:      tr.VenueLocs[venue],
			Capacity: p.Capacity,
			Created:  now,
			Deadline: now + p.RemainingTime,
		})
	}
	in.Quality = model.WorkerSubset(tr.Quality(), in.Workers)
	in.BuildCandidates(model.IndexRTree)
	return in, nil
}
