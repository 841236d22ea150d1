// Package scenario is the discrete-event workload layer: seeded arrival
// processes (Poisson, Gamma/Weibull renewal, diurnal curves, flash-crowd
// bursts) driven per grid cell, per-request SLO classes with fairness and
// violation reporting, deterministic trace record/replay through
// internal/trace event streams, and decision tracing with counterfactual
// evaluation of the solvers not chosen. A scenario's entire event schedule
// is a pure function of its spec — generation happens up front, so the
// same spec replays bitwise into batch.Run (from-scratch or incremental)
// and into sharded clusters.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"casc/internal/assign"
)

// Arrival process names accepted by ProcessSpec.Process.
const (
	ProcPoisson  = "poisson"
	ProcGamma    = "gamma"
	ProcWeibull  = "weibull"
	ProcConstant = "constant"
)

// DiurnalSpec modulates a process's rate over the day: the multiplier at
// round r is 1 + Amplitude·sin(2π·(r/Period + Phase)), clamped at 0.
type DiurnalSpec struct {
	// Period is the cycle length in rounds (must be positive).
	Period float64 `json:"period"`
	// Amplitude in [0,1] scales the swing; 1 means the trough hits zero.
	Amplitude float64 `json:"amplitude"`
	// Phase shifts the curve by this fraction of a cycle.
	Phase float64 `json:"phase,omitempty"`
}

// BurstSpec overlays a flash crowd: rounds [Round, Round+Length) multiply
// the rate by Multiplier, either everywhere (Radius 0) or only in grid
// cells whose center lies within Radius of (X, Y).
type BurstSpec struct {
	Round      int     `json:"round"`
	Length     int     `json:"length,omitempty"` // default 1
	Multiplier float64 `json:"multiplier"`
	X          float64 `json:"x,omitempty"`
	Y          float64 `json:"y,omitempty"`
	Radius     float64 `json:"radius,omitempty"`
}

// ProcessSpec describes one arrival process (workers or tasks).
type ProcessSpec struct {
	// Process selects the arrival family: poisson, gamma, weibull, or
	// constant (deterministic rate with fractional carry).
	Process string `json:"process"`
	// Rate is the expected arrivals per round over the whole grid.
	Rate float64 `json:"rate"`
	// Shape is the gamma/weibull shape parameter k; values below 1 give
	// heavy-tailed, bursty interarrivals. Ignored by poisson/constant.
	Shape float64 `json:"shape,omitempty"`
	// Hotspots, when positive, concentrates arrivals around this many
	// seeded Gaussian centers instead of spreading them uniformly.
	Hotspots int `json:"hotspots,omitempty"`
	// Diurnal, when non-nil, modulates the rate over a daily cycle.
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`
	// Bursts overlays flash crowds on specific rounds and regions.
	Bursts []BurstSpec `json:"bursts,omitempty"`
}

// SLOClass is one latency/deadline tier. Tasks are assigned a class at
// generation time by seeded draw proportional to Share.
type SLOClass struct {
	Name string `json:"name"`
	// Share is the fraction of tasks in this class (normalized over all
	// classes).
	Share float64 `json:"share"`
	// Deadline is the class's task lifetime in rounds (creation → expiry).
	Deadline float64 `json:"deadline"`
	// TargetWait is the SLO: a task dispatched after waiting more than
	// this many rounds (or never dispatched before expiring) violates it.
	TargetWait float64 `json:"target_wait"`
}

// MaxRounds bounds a scenario's round count. A plan allocates its
// per-round schedule up front, so Validate and FromEvents reject longer
// specs and event streams instead of allocating without bound.
const MaxRounds = 1 << 16

// Spec is a complete scenario description, loadable from JSON.
type Spec struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds"`
	// B is the least required workers per task (default 3).
	B int `json:"b,omitempty"`
	// Capacity is a_j for every task (default 5).
	Capacity int `json:"capacity,omitempty"`
	// GridSize is the number of cells per axis the arrival processes are
	// driven over (default 8 → 64 cells).
	GridSize int `json:"grid_size,omitempty"`
	// Solver dispatches each round (default GT).
	Solver string `json:"solver,omitempty"`
	// Alternates are the counterfactual solvers scored against the chosen
	// one when counterfactual evaluation is enabled (default: TPG and GT,
	// minus the chosen solver).
	Alternates []string `json:"alternates,omitempty"`
	// CounterfactualK bounds how many alternates are solved per round
	// (0: disabled unless overridden at run time).
	CounterfactualK int `json:"counterfactual_k,omitempty"`
	// SpeedRange and RadiusRange are the worker attribute ranges, drawn
	// with the paper's truncated Gaussian (defaults: Table II).
	SpeedRange  [2]float64 `json:"speed_range,omitempty"`
	RadiusRange [2]float64 `json:"radius_range,omitempty"`
	// Deadline is the task lifetime in rounds for tasks without an SLO
	// class (default 3, the paper's τ).
	Deadline float64 `json:"deadline,omitempty"`
	// Workers and Tasks are the two arrival processes.
	Workers ProcessSpec `json:"workers"`
	Tasks   ProcessSpec `json:"tasks"`
	// SLOClasses partitions tasks into latency tiers; empty means one
	// implicit tier with Spec.Deadline and no wait target.
	SLOClasses []SLOClass `json:"slo_classes,omitempty"`
}

// withDefaults fills the zero-value fields.
func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Rounds <= 0 {
		s.Rounds = 10
	}
	if s.B == 0 {
		s.B = 3
	}
	if s.Capacity == 0 {
		s.Capacity = 5
	}
	if s.GridSize <= 0 {
		s.GridSize = 8
	}
	if s.Solver == "" {
		s.Solver = "GT"
	}
	if s.SpeedRange == [2]float64{} {
		s.SpeedRange = [2]float64{0.01, 0.05}
	}
	if s.RadiusRange == [2]float64{} {
		s.RadiusRange = [2]float64{0.05, 0.10}
	}
	if s.Deadline <= 0 {
		s.Deadline = 3
	}
	if s.Workers.Shape == 0 {
		s.Workers.Shape = 1
	}
	if s.Tasks.Shape == 0 {
		s.Tasks.Shape = 1
	}
	if len(s.Alternates) == 0 {
		for _, alt := range []string{"TPG", "GT"} {
			if alt != s.Solver {
				s.Alternates = append(s.Alternates, alt)
			}
		}
	}
	return s
}

// validProcess reports whether name is a known arrival family.
func validProcess(name string) bool {
	switch name {
	case ProcPoisson, ProcGamma, ProcWeibull, ProcConstant:
		return true
	}
	return false
}

// Validate rejects specs the generator cannot honour. Call on the
// defaulted spec (Load and Generate do this for you).
func (s Spec) Validate() error {
	if s.Rounds <= 0 || s.Rounds > MaxRounds {
		return fmt.Errorf("scenario: rounds = %d, want 1..%d", s.Rounds, MaxRounds)
	}
	if s.B < 2 {
		return fmt.Errorf("scenario: B = %d, want ≥ 2", s.B)
	}
	if s.Capacity < s.B {
		return fmt.Errorf("scenario: capacity %d below B = %d", s.Capacity, s.B)
	}
	if _, err := assign.ByName(s.Solver, s.Seed); err != nil {
		return fmt.Errorf("scenario: solver: %w", err)
	}
	for _, alt := range s.Alternates {
		if _, err := assign.ByName(alt, s.Seed); err != nil {
			return fmt.Errorf("scenario: alternate: %w", err)
		}
	}
	for _, kp := range []struct {
		kind string
		p    ProcessSpec
	}{{"workers", s.Workers}, {"tasks", s.Tasks}} {
		kind, p := kp.kind, kp.p
		if !validProcess(p.Process) {
			return fmt.Errorf("scenario: %s process %q (want poisson|gamma|weibull|constant)", kind, p.Process)
		}
		if p.Rate < 0 {
			return fmt.Errorf("scenario: %s rate %v negative", kind, p.Rate)
		}
		if p.Shape <= 0 {
			return fmt.Errorf("scenario: %s shape %v, want > 0", kind, p.Shape)
		}
		if p.Hotspots < 0 {
			return fmt.Errorf("scenario: %s hotspots %d negative", kind, p.Hotspots)
		}
		if d := p.Diurnal; d != nil {
			if d.Period <= 0 {
				return fmt.Errorf("scenario: %s diurnal period %v, want > 0", kind, d.Period)
			}
			if d.Amplitude < 0 || d.Amplitude > 1 {
				return fmt.Errorf("scenario: %s diurnal amplitude %v outside [0,1]", kind, d.Amplitude)
			}
		}
		for i, b := range p.Bursts {
			if b.Round < 0 || b.Multiplier < 0 {
				return fmt.Errorf("scenario: %s burst %d has negative round or multiplier", kind, i)
			}
		}
	}
	if s.SpeedRange[0] > s.SpeedRange[1] || s.SpeedRange[0] < 0 {
		return fmt.Errorf("scenario: bad speed range %v", s.SpeedRange)
	}
	if s.RadiusRange[0] > s.RadiusRange[1] || s.RadiusRange[0] < 0 {
		return fmt.Errorf("scenario: bad radius range %v", s.RadiusRange)
	}
	if s.Deadline <= 0 {
		return fmt.Errorf("scenario: deadline %v, want > 0", s.Deadline)
	}
	total := 0.0
	for i, c := range s.SLOClasses {
		if c.Name == "" {
			return fmt.Errorf("scenario: SLO class %d has no name", i)
		}
		if c.Share <= 0 {
			return fmt.Errorf("scenario: SLO class %q share %v, want > 0", c.Name, c.Share)
		}
		if c.Deadline <= 0 {
			return fmt.Errorf("scenario: SLO class %q deadline %v, want > 0", c.Name, c.Deadline)
		}
		if c.TargetWait < 0 {
			return fmt.Errorf("scenario: SLO class %q target wait %v negative", c.Name, c.TargetWait)
		}
		total += c.Share
	}
	if len(s.SLOClasses) > 0 && total <= 0 {
		return fmt.Errorf("scenario: SLO class shares sum to %v", total)
	}
	return nil
}

// Builtins returns the names of the built-in example scenarios, sorted.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// builtins are ready-made specs: each arrival family at a modest scale,
// with SLO tiers and counterfactual alternates wired in so the tooling and
// the bench baseline have stable, committed-in-code workloads.
var builtins = map[string]Spec{
	"poisson": {
		Name: "poisson", Seed: 1, Rounds: 10,
		Workers: ProcessSpec{Process: ProcPoisson, Rate: 120},
		Tasks:   ProcessSpec{Process: ProcPoisson, Rate: 60},
		SLOClasses: []SLOClass{
			{Name: "gold", Share: 0.2, Deadline: 2, TargetWait: 0},
			{Name: "standard", Share: 0.8, Deadline: 4, TargetWait: 2},
		},
	},
	"gamma": {
		Name: "gamma", Seed: 1, Rounds: 10,
		Workers: ProcessSpec{Process: ProcGamma, Rate: 120, Shape: 0.5},
		Tasks:   ProcessSpec{Process: ProcGamma, Rate: 60, Shape: 0.5},
		SLOClasses: []SLOClass{
			{Name: "gold", Share: 0.2, Deadline: 2, TargetWait: 0},
			{Name: "standard", Share: 0.8, Deadline: 4, TargetWait: 2},
		},
	},
	"weibull": {
		Name: "weibull", Seed: 1, Rounds: 10,
		Workers: ProcessSpec{Process: ProcWeibull, Rate: 120, Shape: 0.7},
		Tasks:   ProcessSpec{Process: ProcWeibull, Rate: 60, Shape: 0.7},
		SLOClasses: []SLOClass{
			{Name: "gold", Share: 0.2, Deadline: 2, TargetWait: 0},
			{Name: "standard", Share: 0.8, Deadline: 4, TargetWait: 2},
		},
	},
	"diurnal": {
		Name: "diurnal", Seed: 1, Rounds: 12,
		Workers: ProcessSpec{
			Process: ProcPoisson, Rate: 120,
			Diurnal: &DiurnalSpec{Period: 12, Amplitude: 0.8},
		},
		Tasks: ProcessSpec{
			Process: ProcPoisson, Rate: 60,
			Diurnal: &DiurnalSpec{Period: 12, Amplitude: 0.8, Phase: 0.25},
		},
	},
	"flash": {
		Name: "flash", Seed: 1, Rounds: 10,
		Workers: ProcessSpec{Process: ProcPoisson, Rate: 100, Hotspots: 3},
		Tasks: ProcessSpec{
			Process: ProcPoisson, Rate: 40, Hotspots: 3,
			Bursts: []BurstSpec{{Round: 4, Length: 2, Multiplier: 6, X: 0.5, Y: 0.5, Radius: 0.25}},
		},
		SLOClasses: []SLOClass{
			{Name: "gold", Share: 0.3, Deadline: 2, TargetWait: 1},
			{Name: "standard", Share: 0.7, Deadline: 4, TargetWait: 3},
		},
	},
}

// Load resolves a spec reference: the name of a built-in scenario, or a
// path to a JSON spec file. The result has defaults applied and is
// validated.
func Load(ref string) (Spec, error) {
	if s, ok := builtins[ref]; ok {
		s = s.withDefaults()
		return s, s.Validate()
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		if os.IsNotExist(err) {
			return Spec{}, fmt.Errorf("scenario: %q is neither a built-in (%v) nor a readable spec file", ref, Builtins())
		}
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing %s: %w", ref, err)
	}
	if s.Name == "" {
		s.Name = ref
	}
	s = s.withDefaults()
	return s, s.Validate()
}
