package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (the "type 7" rule). It sorts xs in place; an empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// maxOf returns the largest element of xs, or 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// meanOf returns the arithmetic mean of xs, or 0 for an empty sample.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure with its unit and the number of samples
// behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects one run's metrics, its operation counts, and the output
// check failures; print renders it as a table and the closing JSON line.
type report struct {
	metrics   []metric
	attempted int
	failures  []string
	notes     []string
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.failures) == 0 && r.attempted > 0 }

// print writes the notes, one line per metric (value, unit, sample count),
// up to ten failures, and finally the machine-readable JSON line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %14.6f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Fprintf(w, "FAIL ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, len(r.failures), map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// span is one timed call the benchmark made into a layer of the program.
// All spans of one round (batch workloads) or one request (serve-http)
// share ID; Parent names the enclosing span, empty for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on; write dumps them when the run
// ends. A nil or switched-off tracer records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(id int, name, parent string, start, end time.Time) {
	if t == nil || !t.on {
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// perID sums the durations of the spans called name by span ID, in
// milliseconds.
func (t *tracer) perID(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// memWindow brackets a measured phase with runtime.MemStats readings.
type memWindow struct{ start, end runtime.MemStats }

func (m *memWindow) begin() { runtime.ReadMemStats(&m.start) }
func (m *memWindow) stop()  { runtime.ReadMemStats(&m.end) }

// heldMB forces a collection and returns the live heap in MB.
func heldMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}

// median returns the median of a small sample without disturbing it.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
