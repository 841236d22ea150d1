package casc

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	params := DefaultWorkload()
	params.NumWorkers, params.NumTasks = 150, 50
	inst, err := params.Instance(0, IndexRTree)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewGT(GTOptions{LUB: true, Epsilon: DefaultEpsilon})
	a, err := solver.Solve(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(inst); err != nil {
		t.Fatal(err)
	}
	score := a.TotalScore(inst)
	ub := Upper(inst)
	if score <= 0 || score > ub {
		t.Fatalf("score %v outside (0, UPPER=%v]", score, ub)
	}
}

func TestFacadeSolverRegistry(t *testing.T) {
	for _, name := range AllSolverNames() {
		s, err := SolverByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("%s resolves to %s", name, s.Name())
		}
	}
}

func TestFacadeMeetupAndSimulation(t *testing.T) {
	cfg := DefaultMeetup()
	cfg.NumUsers, cfg.NumEvents, cfg.NumGroups = 300, 120, 60
	city := GenerateMeetup(cfg)
	q := city.Quality()
	if q.NumWorkers() != 300 {
		t.Fatalf("city quality covers %d workers", q.NumWorkers())
	}
	// Tiny simulation through the facade.
	params := DefaultWorkload()
	params.NumWorkers, params.NumTasks = 60, 20
	src := &GeneratorSource{
		Model:     QualitySynthetic{N: 60 * 3, Seed: 9},
		WorkersFn: func(round int) []Worker { return params.WithSeed(int64(round)).Workers(float64(round)) },
		TasksFn:   func(round int) []Task { return params.WithSeed(int64(round) + 50).Tasks(float64(round)) },
	}
	res, err := Simulate(context.Background(), BatchConfig{Solver: NewTPG(), Rounds: 3, B: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("ran %d batches", len(res.Batches))
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(AllExperiments()) != 7 {
		t.Fatalf("expected 7 experiments (Figures 2-8), got %d", len(AllExperiments()))
	}
	s, err := RunExperiment(context.Background(), "capacity",
		ExperimentOptions{Rounds: 1, Scale: 0.05, Solvers: []string{"TPG", "RAND"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("capacity sweep has %d points, want 4", len(s.Points))
	}
}

func TestFacadeWrappers(t *testing.T) {
	ctx := context.Background()
	params := DefaultWorkload()
	params.NumWorkers, params.NumTasks = 80, 30
	inst, err := params.Instance(0, IndexGrid)
	if err != nil {
		t.Fatal(err)
	}

	// Solver constructors.
	for _, s := range []Solver{NewTPG(), NewMFlow(), NewRandom(1), NewWST(), NewLocalSearch(nil)} {
		a, err := s.Solve(ctx, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := a.Validate(inst); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}

	// Bounds, equilibrium and regret analysis.
	bounds := Bounds(inst)
	if len(bounds) != 80 {
		t.Fatalf("bounds: %d", len(bounds))
	}
	gt := NewGT(GTOptions{})
	a, err := gt.Solve(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	eq := AnalyzeEquilibrium(inst, a, a.CompletedTasks(inst))
	if eq.Achieved > eq.Upper+1e-9 {
		t.Fatal("achieved above upper")
	}
	reg := SummarizeRegret(Regret(inst, a))
	if reg.Max > 1e-9 {
		t.Fatalf("GT regret %v", reg.Max)
	}

	// Quality model constructors.
	cached := NewQualityCache(QualitySynthetic{N: 10, Seed: 2})
	if cached.Quality(1, 2) != cached.Quality(2, 1) {
		t.Fatal("cache asymmetric")
	}
	if cached.NumWorkers() != 10 {
		t.Fatal("cache NumWorkers")
	}

	// Road network + viz + trace wrappers.
	net, err := NewRoadGrid(DefaultRoadGrid())
	if err != nil {
		t.Fatal(err)
	}
	roadInst, _ := params.Instance(0, IndexRTree)
	roadInst.Travel = net.Travel(roadInst.Workers, roadInst.Tasks)
	roadInst.BuildCandidates(IndexRTree)
	if roadInst.NumValidPairs() > inst.NumValidPairs() {
		t.Fatal("road travel grew candidates")
	}
	var svg bytes.Buffer
	if err := RenderAssignment(&svg, inst, a, VizOptions{Title: "facade"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatal("no svg output")
	}
	path := filepath.Join(t.TempDir(), "a.svg")
	if err := SaveAssignmentSVG(path, inst, a, VizOptions{}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Append(TraceRecord{Run: "x", Solver: "GT", Score: 1, Upper: 2}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil || len(recs) != 1 {
		t.Fatalf("trace round trip: %v, %d", err, len(recs))
	}
	sums := SummarizeTrace(recs)
	if len(sums) != 1 || sums[0].Run != "x" {
		t.Fatalf("summaries: %+v", sums)
	}

	// Platform wrapper.
	p, err := NewPlatform(PlatformConfig{B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterWorker(Pt(0.5, 0.5), 0.1, 0.2); err != nil {
		t.Fatal(err)
	}
	if p.Status().AvailableWorkers != 1 {
		t.Fatal("platform wrapper broken")
	}

	// Meetup sample through the facade.
	cfg := DefaultMeetup()
	cfg.NumUsers, cfg.NumEvents, cfg.NumGroups = 200, 80, 40
	city := GenerateMeetup(cfg)
	sp := DefaultMeetupSample()
	sp.NumWorkers, sp.NumTasks = 50, 20
	mi, err := city.Sample(rand.New(rand.NewSource(1)), sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mi.Validate(); err != nil {
		t.Fatal(err)
	}
}
