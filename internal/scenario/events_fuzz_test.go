package scenario

import (
	"bytes"
	"strings"
	"testing"

	"casc/internal/trace"
)

// badStreams are event streams Plan.Events never writes, each of which
// once panicked FromEvents or sized an allocation by a claimed number.
var badStreams = []struct{ name, src string }{
	{"rounds 2^62", `{"kind":"meta","meta":{"rounds":4611686018427387904,"b":3}}`},
	{"rounds above MaxRounds", `{"kind":"meta","meta":{"rounds":65537,"b":3}}`},
	{"negative universe", `{"kind":"meta","meta":{"rounds":1,"b":3,"universe":-5}}`},
	{"negative task ID", `{"kind":"meta","meta":{"rounds":1,"b":3}}
{"kind":"task","task":{"ID":-1},"class":"gold"}
{"kind":"task","task":{"ID":0},"class":"gold"}`},
	{"task ID 2^40", `{"kind":"meta","meta":{"rounds":1,"b":3}}
{"kind":"task","task":{"ID":1099511627776},"class":"gold"}`},
	{"duplicate task ID", `{"kind":"meta","meta":{"rounds":1,"b":3}}
{"kind":"task","task":{"ID":0}}
{"kind":"task","task":{"ID":0}}`},
	{"negative worker ID", `{"kind":"meta","meta":{"rounds":1,"b":3}}
{"kind":"worker","worker":{"ID":-1}}`},
	{"sparse worker IDs", `{"kind":"meta","meta":{"rounds":1,"b":3}}
{"kind":"worker","worker":{"ID":0}}
{"kind":"worker","worker":{"ID":2}}`},
	{"event past the last round", `{"kind":"meta","meta":{"rounds":1,"b":3}}
{"kind":"worker","round":1,"worker":{"ID":0}}`},
}

func TestFromEventsRejectsUnrecordable(t *testing.T) {
	for _, bs := range badStreams {
		meta, evs, err := trace.ReadEvents(strings.NewReader(bs.src))
		if err != nil {
			t.Fatalf("%s: ReadEvents: %v", bs.name, err)
		}
		if _, err := FromEvents(meta, evs); err == nil {
			t.Errorf("%s: accepted", bs.name)
		}
	}
	// FromEvents checks what it indexes by even when the events did not
	// come through ReadEvents.
	meta := trace.ReplayMeta{Rounds: 2, B: 3}
	for name, ev := range map[string]trace.Event{
		"negative round":   {Kind: trace.EventWorker, Round: -1},
		"worker no record": {Kind: trace.EventWorker},
		"task no record":   {Kind: trace.EventTask},
	} {
		if _, err := FromEvents(meta, []trace.Event{ev}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	spec := churnSpec().withDefaults()
	spec.Rounds = MaxRounds + 1
	if err := spec.Validate(); err == nil {
		t.Errorf("spec with %d rounds accepted", spec.Rounds)
	}
	spec.Rounds = MaxRounds
	if err := spec.Validate(); err != nil {
		t.Errorf("spec with MaxRounds rounds rejected: %v", err)
	}
}

// FuzzReadEvents feeds arbitrary bytes through the replay input boundary:
// ReadEvents then FromEvents must return an error or a plan, never panic.
// A plan it accepts must record back to a stream it accepts again, with
// the same shape.
func FuzzReadEvents(f *testing.F) {
	for _, bs := range badStreams {
		f.Add([]byte(bs.src))
	}
	spec := churnSpec()
	spec.Rounds = 3
	plan, err := Generate(spec)
	if err != nil {
		f.Fatal(err)
	}
	meta, events := plan.Events(plan.Spec.Solver)
	var buf bytes.Buffer
	if err := trace.WriteEvents(&buf, meta, events); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, evs, err := trace.ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := FromEvents(meta, evs)
		if err != nil {
			return
		}
		meta2, evs2 := p.Events(p.Spec.Solver)
		again, err := FromEvents(meta2, evs2)
		if err != nil {
			t.Fatalf("re-recorded plan rejected: %v", err)
		}
		if again.Rounds() != p.Rounds() || again.NumWorkers() != p.NumWorkers() ||
			again.NumTasks() != p.NumTasks() || again.Universe != p.Universe {
			t.Fatalf("re-recorded plan has %d rounds, %d workers, %d tasks, universe %d; want %d, %d, %d, %d",
				again.Rounds(), again.NumWorkers(), again.NumTasks(), again.Universe,
				p.Rounds(), p.NumWorkers(), p.NumTasks(), p.Universe)
		}
	})
}
