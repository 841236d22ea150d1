package scenario

import (
	"fmt"
	"math"
	"sort"

	"casc/internal/coop"
	"casc/internal/model"
	"casc/internal/trace"
)

// This file adapts plans to batch.Source and to the internal/trace event
// stream: recording exports a plan's schedule, replaying rebuilds an
// identical plan from the stream.

// planSource feeds a plan into batch.Run.
type planSource struct{ p *Plan }

// Source adapts the plan to batch.Source. The quality model is the
// deterministic synthetic cooperation model over the plan's worker
// universe, seeded by the spec seed — the same construction for original
// runs and replays, which is what makes scores comparable bitwise.
func (p *Plan) Source() *planSource { return &planSource{p} }

func (s *planSource) WorkersAt(round int) []model.Worker {
	if round < 0 || round >= len(s.p.workersByRound) {
		return nil
	}
	return s.p.workersByRound[round]
}

func (s *planSource) TasksAt(round int) []model.Task {
	if round < 0 || round >= len(s.p.tasksByRound) {
		return nil
	}
	return s.p.tasksByRound[round]
}

func (s *planSource) Quality() model.QualityModel {
	return coop.Synthetic{N: s.p.Universe, Seed: uint64(s.p.Spec.Seed)}
}

// Events exports the plan as a replayable event stream: the meta header
// plus every arrival in schedule order (round-major, workers before
// tasks within a round, generation order within a kind).
func (p *Plan) Events(solver string) (trace.ReplayMeta, []trace.Event) {
	meta := trace.ReplayMeta{
		Scenario: p.Spec.Name,
		Seed:     p.Spec.Seed,
		Rounds:   p.Rounds(),
		B:        p.Spec.B,
		Solver:   solver,
		Universe: p.Universe,
	}
	var events []trace.Event
	for r := 0; r < p.Rounds(); r++ {
		for i := range p.workersByRound[r] {
			w := p.workersByRound[r][i]
			events = append(events, trace.Event{Kind: trace.EventWorker, Round: r, Worker: &w})
		}
		for i := range p.tasksByRound[r] {
			t := p.tasksByRound[r][i]
			events = append(events, trace.Event{
				Kind: trace.EventTask, Round: r, Task: &t,
				Class: p.ClassName(t.ID),
			})
		}
	}
	return meta, events
}

// FromEvents rebuilds a plan from a recorded event stream. The plan
// carries the meta's seed, B and round count; SLO classes are
// reconstructed from the per-task class names (deadline and wait targets
// default to the observed deadline spread when the original spec is not
// available, which preserves class membership — the property replay
// verification needs — even though the numeric targets may differ).
func FromEvents(meta trace.ReplayMeta, events []trace.Event) (*Plan, error) {
	if meta.Rounds <= 0 {
		return nil, fmt.Errorf("scenario: event stream meta has rounds = %d", meta.Rounds)
	}
	spec := Spec{
		Name:   meta.Scenario,
		Seed:   meta.Seed,
		Rounds: meta.Rounds,
		B:      meta.B,
		Solver: meta.Solver,
	}
	spec = spec.withDefaults()
	p := &Plan{
		Spec:           spec,
		workersByRound: make([][]model.Worker, meta.Rounds),
		tasksByRound:   make([][]model.Task, meta.Rounds),
	}
	classIndex := map[string]int{}
	classByTask := map[int]string{}
	maxWorkerID := -1
	maxTaskID := -1
	for i, ev := range events {
		if ev.Round >= meta.Rounds {
			return nil, fmt.Errorf("scenario: event %d at round %d beyond meta rounds %d", i, ev.Round, meta.Rounds)
		}
		switch ev.Kind {
		case trace.EventWorker:
			p.workersByRound[ev.Round] = append(p.workersByRound[ev.Round], *ev.Worker)
			if ev.Worker.ID > maxWorkerID {
				maxWorkerID = ev.Worker.ID
			}
		case trace.EventTask:
			p.tasksByRound[ev.Round] = append(p.tasksByRound[ev.Round], *ev.Task)
			if ev.Task.ID > maxTaskID {
				maxTaskID = ev.Task.ID
			}
			if ev.Class != "" {
				if _, ok := classIndex[ev.Class]; !ok {
					classIndex[ev.Class] = 0 // index assigned after the scan
				}
				classByTask[ev.Task.ID] = ev.Class
			}
		default:
			return nil, fmt.Errorf("scenario: event %d has kind %q", i, ev.Kind)
		}
	}
	p.Universe = meta.Universe
	if p.Universe <= maxWorkerID {
		p.Universe = maxWorkerID + 1
	}
	if p.Universe == 0 {
		p.Universe = 1
	}
	// Rebuild the class table in sorted-name order (first-seen order would
	// leak map iteration into nothing, but sorted is simplest to pin).
	names := make([]string, 0, len(classIndex))
	for name := range classIndex {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		classIndex[name] = i
		p.Spec.SLOClasses = append(p.Spec.SLOClasses, SLOClass{
			Name: name, Share: 1, Deadline: p.Spec.Deadline, TargetWait: math.Inf(1),
		})
	}
	if maxTaskID >= 0 {
		p.taskClass = make([]int, maxTaskID+1)
		for i := range p.taskClass {
			p.taskClass[i] = -1
		}
		for id, name := range classByTask {
			p.taskClass[id] = classIndex[name]
		}
	}
	return p, nil
}
