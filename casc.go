// Package casc is a complete implementation of Cooperation-Aware Task
// Assignment in Spatial Crowdsourcing (CA-SC) after Cheng, Chen and Ye,
// ICDE 2019: a spatial crowdsourcing platform periodically assigns moving
// workers to location-based tasks that each need a group of B..a_j workers,
// maximizing the total pairwise cooperation quality of the groups
// (Equations 1-3 of the paper).
//
// The package re-exports the full system through thin aliases:
//
//   - the problem model (Worker, Task, Instance, Assignment) with the
//     paper's validity, capacity and deadline constraints;
//   - the solvers: the task-priority greedy approach TPG (Algorithm 2), the
//     game theoretic approach GT (Algorithm 3) with the LUB and TSI
//     optimizations, the MFLOW and RAND baselines, the UPPER bound of
//     Equation 9, and an exact brute-force optimum for tiny instances;
//   - the batch-based framework of Algorithm 1 as a discrete-time simulator;
//   - workload generators: Table II synthetic workloads (UNIF/SKEW) and a
//     synthetic Meetup-style event social network standing in for the
//     paper's crawled dataset.
//
// Quick start:
//
//	params := casc.DefaultWorkload()
//	inst, err := params.Instance(0, casc.IndexRTree)
//	if err != nil { ... }
//	solver := casc.NewGT(casc.GTOptions{LUB: true, Epsilon: 0.05})
//	a, err := solver.Solve(ctx, inst)
//	fmt.Println(a.TotalScore(inst), "of at most", casc.Upper(inst))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison of every figure.
package casc

import (
	"context"
	"io"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/checkin"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/harness"
	"casc/internal/meetup"
	"casc/internal/model"
	"casc/internal/online"
	"casc/internal/partition"
	"casc/internal/roadnet"
	"casc/internal/server"
	"casc/internal/trace"
	"casc/internal/viz"
	"casc/internal/workload"
)

// Core model types (§II of the paper).
type (
	// Point is a location in the 2D data space.
	Point = geo.Point
	// Worker is a cooperation-aware moving worker (Definition 1).
	Worker = model.Worker
	// Task is a spatial task (Definition 2).
	Task = model.Task
	// Instance is one batch of the CA-SC problem.
	Instance = model.Instance
	// Assignment is a set of valid worker-and-task pairs (Definition 4).
	Assignment = model.Assignment
	// Pair is one ⟨worker, task⟩ element of an assignment.
	Pair = model.Pair
	// IndexKind selects the spatial index used for candidate retrieval.
	IndexKind = model.IndexKind
	// QualityModel yields pairwise cooperation qualities q_i(w_k).
	QualityModel = model.QualityModel
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewAssignment returns an empty assignment for the instance.
func NewAssignment(in *Instance) *Assignment { return model.NewAssignment(in) }

// Unassigned marks a worker without a task in an Assignment.
const Unassigned = model.Unassigned

// Spatial index choices.
const (
	// IndexRTree uses an STR-bulk-loaded R-tree (the paper's choice).
	IndexRTree = model.IndexRTree
	// IndexGrid uses a uniform grid.
	IndexGrid = model.IndexGrid
	// IndexLinear scans all tasks per worker.
	IndexLinear = model.IndexLinear
)

// Solver types (§IV, §V).
type (
	// Solver computes an assignment for one batch instance.
	Solver = assign.Solver
	// GTOptions configure the game theoretic approach.
	GTOptions = assign.GTOptions
	// TPG is the task-priority greedy solver (Algorithm 2).
	TPG = assign.TPG
	// GT is the game theoretic solver (Algorithm 3).
	GT = assign.GT
)

// NewTPG returns the task-priority greedy solver (Algorithm 2).
func NewTPG() *TPG { return assign.NewTPG() }

// NewGT returns the game theoretic solver (Algorithm 3). Enable the §V-D
// optimizations with GTOptions{LUB: true} and/or GTOptions{Epsilon: 0.05}.
func NewGT(opts GTOptions) *GT { return assign.NewGT(opts) }

// NewMFlow returns the cooperation-oblivious maximum-flow baseline.
func NewMFlow() Solver { return assign.NewMFlow() }

// NewRandom returns the RAND baseline.
func NewRandom(seed int64) Solver { return assign.NewRandom(seed) }

// NewWST returns the worker-selected-tasks baseline (related work §VII).
func NewWST() Solver { return assign.NewWST() }

// NewExact returns the branch-and-bound optimal solver (small instances).
func NewExact() *assign.Exact { return assign.NewExact() }

// NewPortfolio runs several solvers and keeps the best assignment.
func NewPortfolio(names []string, seed int64) (*assign.Portfolio, error) {
	return assign.NewPortfolio(names, seed)
}

// Decomposition.
type (
	// InstanceComponent is one connected component of an instance's
	// worker–task validity graph.
	InstanceComponent = partition.Component
	// SubIndex lifts sub-instance assignments back to the parent (see
	// Instance.SubInstance).
	SubIndex = model.SubIndex
)

// Components returns the independent connected components of the
// instance's validity graph, largest first.
func Components(in *Instance) []InstanceComponent { return partition.Components(in) }

// SolverByName resolves TPG, GT, GT+LUB, GT+TSI, GT+ALL, MFLOW, RAND or WST.
func SolverByName(name string, seed int64) (Solver, error) { return assign.ByName(name, seed) }

// AllSolverNames lists the solver names in the paper's figure order.
func AllSolverNames() []string { return assign.AllNames() }

// Upper computes the UPPER estimate of Equation 9 — an upper bound on the
// total cooperation quality revenue any assignment of the instance can
// achieve.
func Upper(in *Instance) float64 { return assign.Upper(in) }

// DefaultEpsilon is the paper's default TSI threshold (Table II).
const DefaultEpsilon = assign.DefaultEpsilon

// Cooperation quality models (Equation 1, §VI-A).
type (
	// QualityMatrix is a dense symmetric quality matrix for small instances.
	QualityMatrix = coop.Matrix
	// QualityHistory estimates qualities from co-operation records
	// (Equation 1).
	QualityHistory = coop.History
	// QualityJaccard is the Meetup co-group model of §VI-A.
	QualityJaccard = coop.Jaccard
	// QualitySynthetic is a deterministic O(1)-memory pseudo-random model.
	QualitySynthetic = coop.Synthetic
)

// NewQualityMatrix returns an all-zero n×n symmetric quality matrix.
func NewQualityMatrix(n int) *QualityMatrix { return coop.NewMatrix(n) }

// NewQualityHistory returns an Equation 1 estimator with mixing parameter
// alpha and base quality omega.
func NewQualityHistory(n int, alpha, omega float64) *QualityHistory {
	return coop.NewHistory(n, alpha, omega)
}

// NewQualityJaccard returns the Meetup co-group quality model over sorted
// per-worker group membership lists.
func NewQualityJaccard(groups [][]int) *QualityJaccard { return coop.NewJaccard(groups) }

// QualityDecayHistory is a recency-weighted Equation 1 estimator: ratings
// are weighted by exp(−λ·age), so estimates track current cooperation.
type QualityDecayHistory = coop.DecayHistory

// NewQualityDecayHistory returns a decayed estimator with rate lambda per
// time unit (lambda = 0 matches QualityHistory exactly).
func NewQualityDecayHistory(n int, alpha, omega, lambda float64) *QualityDecayHistory {
	return coop.NewDecayHistory(n, alpha, omega, lambda)
}

// NewQualityCache memoizes an expensive quality model per unordered pair;
// wrap Jaccard or History models before handing them to solvers.
func NewQualityCache(base QualityModel) QualityModel {
	return coop.NewCached(coopModelAdapter{base})
}

// coopModelAdapter bridges the structurally identical model.QualityModel
// and coop.Model interfaces.
type coopModelAdapter struct{ q QualityModel }

func (c coopModelAdapter) Quality(i, k int) float64 { return c.q.Quality(i, k) }
func (c coopModelAdapter) NumWorkers() int          { return c.q.NumWorkers() }

// Batch framework (Algorithm 1, §III).
type (
	// BatchConfig drives a simulation of the batch-based framework.
	BatchConfig = batch.Config
	// BatchSource feeds workers and tasks into the simulation.
	BatchSource = batch.Source
	// BatchResult aggregates a simulation.
	BatchResult = batch.Result
	// BatchStats records one batch.
	BatchStats = batch.BatchStats
	// GeneratorSource adapts per-round generator functions to BatchSource.
	GeneratorSource = batch.GeneratorSource
)

// Simulate runs the batch-based framework of Algorithm 1.
func Simulate(ctx context.Context, cfg BatchConfig, src BatchSource) (*BatchResult, error) {
	return batch.Run(ctx, cfg, src)
}

// Workloads (§VI-A).
type (
	// WorkloadParams are the Table II experiment knobs.
	WorkloadParams = workload.Params
	// WorkloadDist selects UNIF or SKEW locations.
	WorkloadDist = workload.Dist
	// MeetupConfig sizes the synthetic event-based social network.
	MeetupConfig = meetup.Config
	// MeetupCity is a generated event-based social network.
	MeetupCity = meetup.City
	// MeetupSampleParams configure one experiment round drawn from a city.
	MeetupSampleParams = meetup.SampleParams
)

// Location distributions.
const (
	// UNIF draws locations uniformly over the unit square.
	UNIF = workload.UNIF
	// SKEW draws 80% of locations from a central Gaussian cluster.
	SKEW = workload.SKEW
)

// DefaultWorkload returns Table II's bold default parameters.
func DefaultWorkload() WorkloadParams { return workload.Default() }

// DefaultMeetup mirrors the paper's Hong Kong Meetup slice.
func DefaultMeetup() MeetupConfig { return meetup.Default() }

// GenerateMeetup builds a synthetic Meetup-style city.
func GenerateMeetup(cfg MeetupConfig) *MeetupCity { return meetup.Generate(cfg) }

// DefaultMeetupSample returns Table II defaults for city sampling.
func DefaultMeetupSample() MeetupSampleParams { return meetup.DefaultSample() }

// Check-in trace workloads (Gowalla/Foursquare-style, §VI-A's other data
// sources).
type (
	// CheckinConfig sizes a synthetic check-in trace.
	CheckinConfig = checkin.Config
	// CheckinTrace is a generated LBSN check-in dataset.
	CheckinTrace = checkin.Trace
	// CheckinSampleParams configure one batch drawn from a trace.
	CheckinSampleParams = checkin.SampleParams
)

// DefaultCheckin is a city-scale check-in trace configuration.
func DefaultCheckin() CheckinConfig { return checkin.Default() }

// GenerateCheckin builds a synthetic check-in trace.
func GenerateCheckin(cfg CheckinConfig) *CheckinTrace { return checkin.Generate(cfg) }

// DefaultCheckinSample returns Table II defaults for trace sampling.
func DefaultCheckinSample() CheckinSampleParams { return checkin.DefaultSample() }

// Experiments (§VI).
type (
	// ExperimentOptions configure a figure regeneration.
	ExperimentOptions = harness.Options
	// ExperimentSeries is one regenerated figure.
	ExperimentSeries = harness.Series
)

// AllExperiments lists the experiment names in the paper's figure order:
// capacity (Fig. 2), speed (Fig. 3), radius (Fig. 4), deadline (Fig. 5),
// epsilon (Fig. 6), workers (Fig. 7), tasks (Fig. 8).
func AllExperiments() []string { return harness.AllExperiments() }

// RunExperiment regenerates one of the paper's figures.
func RunExperiment(ctx context.Context, name string, opt ExperimentOptions) (*ExperimentSeries, error) {
	return harness.Run(ctx, name, opt)
}

// Equilibrium analysis (Lemmas V.2/V.3, Theorem V.2).
type (
	// WorkerBounds carries q̂_{i,B} and q̌_{i,B} for one worker.
	WorkerBounds = assign.WorkerBounds
	// EquilibriumQuality reports the Theorem V.2 measures for a GT run.
	EquilibriumQuality = assign.EquilibriumQuality
)

// Bounds computes the Lemma V.2/V.3 per-worker quality bounds.
func Bounds(in *Instance) []WorkerBounds { return assign.Bounds(in) }

// AnalyzeEquilibrium evaluates an assignment against the Theorem V.2
// price-of-anarchy/stability bounds.
func AnalyzeEquilibrium(in *Instance, a *Assignment, nInit int) EquilibriumQuality {
	return assign.AnalyzeEquilibrium(in, a, nInit)
}

// RegretSummary aggregates a per-worker regret profile.
type RegretSummary = assign.RegretSummary

// Regret returns each worker's best unilateral utility gain under the
// assignment — the paper's fairness measure: a Nash equilibrium (GT
// output) has zero regret everywhere.
func Regret(in *Instance, a *Assignment) []float64 { return assign.Regret(in, a) }

// SummarizeRegret aggregates per-worker regrets.
func SummarizeRegret(regrets []float64) RegretSummary { return assign.SummarizeRegret(regrets) }

// Online assignment mode (§VII's one-by-one alternative to batching).
type (
	// OnlinePolicy decides one arriving worker's task immediately.
	OnlinePolicy = online.Policy
	// OnlineGreedy joins the task with the maximum immediate ΔQ.
	OnlineGreedy = online.GreedyDelta
	// OnlineThreshold joins only when ΔQ clears a threshold.
	OnlineThreshold = online.ThresholdDelta
	// OnlineRandom joins a random open valid task.
	OnlineRandom = online.RandomChoice
)

// RunOnline streams the instance's workers in arrival order through the
// policy, assigning each immediately and irrevocably.
func RunOnline(in *Instance, p OnlinePolicy) *Assignment { return online.Run(in, p) }

// Platform service (the HTTP crowdsourcing platform).
type (
	// Platform is the in-memory spatial crowdsourcing platform with the
	// Equation 1 rating feedback loop.
	Platform = server.Platform
	// PlatformConfig configures a Platform.
	PlatformConfig = server.Config
)

// NewPlatform returns an empty platform; its Handler method serves the
// HTTP API.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return server.NewPlatform(cfg) }

// NewLocalSearch wraps a base solver (nil: GT) with pairwise-swap
// refinement — the move class best-response dynamics cannot make.
func NewLocalSearch(base Solver) *assign.LocalSearch { return assign.NewLocalSearch(base) }

// Road-network travel model (extension; the paper is Euclidean).
type (
	// RoadNetwork is a road graph embedded in the unit square.
	RoadNetwork = roadnet.Network
	// RoadGridConfig configures a perturbed-grid street network.
	RoadGridConfig = roadnet.GridConfig
	// TravelFunc overrides the Euclidean travel-time model of an Instance.
	TravelFunc = model.TravelFunc
)

// NewRoadGrid builds a perturbed-grid road network; wire it into an
// Instance with inst.Travel = net.Travel(inst.Workers, inst.Tasks) before
// BuildCandidates.
func NewRoadGrid(cfg RoadGridConfig) (*RoadNetwork, error) { return roadnet.NewGrid(cfg) }

// DefaultRoadGrid is a 24×24 Manhattan-ish street grid.
func DefaultRoadGrid() RoadGridConfig { return roadnet.DefaultGrid() }

// Visualization.
type (
	// VizOptions control SVG rendering.
	VizOptions = viz.Options
)

// RenderAssignment writes a standalone SVG of the instance and assignment.
func RenderAssignment(w io.Writer, in *Instance, a *Assignment, opt VizOptions) error {
	return viz.Assignment(w, in, a, opt)
}

// SaveAssignmentSVG writes the rendering to a file.
func SaveAssignmentSVG(path string, in *Instance, a *Assignment, opt VizOptions) error {
	return viz.SaveAssignment(path, in, a, opt)
}

// Trace recording.
type (
	// TraceRecord is one batch of one recorded run.
	TraceRecord = trace.Record
	// TraceWriter appends records as JSON Lines.
	TraceWriter = trace.Writer
	// TraceSummary aggregates a recorded run.
	TraceSummary = trace.Summary
)

// NewTraceWriter wraps an io.Writer for JSONL trace recording; hand it to
// BatchConfig.Trace.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// ReadTrace loads trace records from JSON Lines.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.Read(r) }

// SummarizeTrace aggregates records by run.
func SummarizeTrace(recs []TraceRecord) []TraceSummary { return trace.Summarize(recs) }
