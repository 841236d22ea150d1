package viz

import (
	"bytes"
	"context"
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casc/internal/assign"
	"casc/internal/model"
	"casc/internal/workload"
)

func testInstance(t *testing.T) (*model.Instance, *model.Assignment) {
	t.Helper()
	p := workload.Default()
	p.NumWorkers, p.NumTasks = 60, 20
	p.Seed = 9
	in, err := p.Instance(0, model.IndexRTree)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assign.NewGT(assign.GTOptions{}).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return in, a
}

func TestAssignmentRendersWellFormedXML(t *testing.T) {
	in, a := testInstance(t)
	var buf bytes.Buffer
	if err := Assignment(&buf, in, a, Options{Title: "test <render> & escape", ShowAreas: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("output is not well-formed XML: %v", err)
		}
	}
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Error("missing svg envelope")
	}
	if !strings.Contains(out, "&lt;render&gt;") {
		t.Error("title not escaped")
	}
	// One triangle per worker, one rect per task (plus background rect).
	if got := strings.Count(out, "<path "); got != len(in.Workers) {
		t.Errorf("%d worker marks, want %d", got, len(in.Workers))
	}
	if got := strings.Count(out, "<rect "); got != len(in.Tasks)+1 {
		t.Errorf("%d rects, want %d", got, len(in.Tasks)+1)
	}
	// Assignment edges: one line per assigned worker.
	if got := strings.Count(out, "<line "); got != a.NumAssigned() {
		t.Errorf("%d edges, want %d", got, a.NumAssigned())
	}
	// Working-area circles.
	if got := strings.Count(out, "<circle "); got != len(in.Workers) {
		t.Errorf("%d area circles, want %d", got, len(in.Workers))
	}
}

func TestInstanceWithoutAssignment(t *testing.T) {
	in, _ := testInstance(t)
	var buf bytes.Buffer
	if err := Assignment(&buf, in, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<line ") {
		t.Error("instance-only rendering has assignment edges")
	}
	if strings.Contains(buf.String(), "<circle ") {
		t.Error("areas drawn without ShowAreas")
	}
}

func TestSaveAssignment(t *testing.T) {
	in, a := testInstance(t)
	path := filepath.Join(t.TempDir(), "out.svg")
	if err := SaveAssignment(path, in, a, Options{Size: 400}); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `width="400"`) {
		t.Error("size option ignored")
	}
}

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}
