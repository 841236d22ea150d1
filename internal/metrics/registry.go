package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry holds metric families keyed by name. Getter methods are
// idempotent: the first call for a (name, labels) pair creates the metric,
// later calls return the same instance, so call sites never need
// registration boilerplate. Mixing kinds under one name panics — that is
// a programmer error, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family groups the children of one metric name.
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	bounds []float64
	// children maps a label signature to its metric.
	children map[string]*child
}

type child struct {
	labels []Label
	metric any // *Counter, *Gauge, or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig canonicalizes labels into a deterministic signature. Labels
// are sorted by key; duplicate keys keep the last value.
func labelSig(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// lookup returns the metric for (name, labels), creating family and child
// on first use via mk.
func (r *Registry) lookup(name, help, kind string, bounds []float64, labels []Label, mk func() any) any {
	sig, canon := labelSig(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			r.mu.RUnlock()
			panic(fmt.Sprintf("metrics: %s already registered as %s, requested as %s", name, f.kind, kind))
		}
		if c, ok := f.children[sig]; ok {
			r.mu.RUnlock()
			return c.metric
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, children: make(map[string]*child)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s already registered as %s, requested as %s", name, f.kind, kind))
	}
	if c, ok := f.children[sig]; ok {
		return c.metric
	}
	c := &child{labels: canon, metric: mk()}
	f.children[sig] = c
	return c.metric
}

// Counter returns the counter for (name, labels), creating it on first
// use. The help string of the first call wins.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, "counter", nil, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, "gauge", nil, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use. The bounds of the first
// call win; later calls may pass nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == "histogram" {
		bounds = f.bounds
	}
	r.mu.RUnlock()
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	return r.lookup(name, help, "histogram", bounds, labels, func() any { return newHistogram(bounds) }).(*Histogram)
}

// sortedFamilies returns the families sorted by name and each family's
// children sorted by label signature — the deterministic order used by
// both exposition and snapshots.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren holds the read lock because lookup adds children to
// existing families under the write lock.
func (r *Registry) sortedChildren(f *family) []*child {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sigs := make([]string, 0, len(f.children))
	for sig := range f.children {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]*child, 0, len(sigs))
	for _, sig := range sigs {
		out = append(out, f.children[sig])
	}
	return out
}

// Snapshot is a point-in-time copy of every metric in a registry,
// JSON-serializable so simulation runs can dump it as a perf datapoint.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter's state.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnapshot is one gauge's state.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Bucket is one cumulative histogram bucket: Count observations were
// less than or equal to UpperBound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is one histogram's state. Buckets are cumulative and
// exclude the implicit +Inf bucket, whose count equals Count.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []Bucket          `json:"buckets"`
}

// Mean returns the mean observed value, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket containing it, the same estimate Prometheus's
// histogram_quantile computes. Observations beyond the last finite bound
// clamp to that bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	for i, b := range h.Buckets {
		if float64(b.Count) >= rank {
			lower, lowerCount := 0.0, uint64(0)
			if i > 0 {
				lower = h.Buckets[i-1].UpperBound
				lowerCount = h.Buckets[i-1].Count
			}
			span := float64(b.Count - lowerCount)
			if span == 0 {
				return b.UpperBound
			}
			frac := (rank - float64(lowerCount)) / span
			return lower + (b.UpperBound-lower)*frac
		}
	}
	return h.Buckets[len(h.Buckets)-1].UpperBound
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot copies the current state of every metric.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	for _, f := range r.sortedFamilies() {
		for _, c := range r.sortedChildren(f) {
			switch m := c.metric.(type) {
			case *Counter:
				snap.Counters = append(snap.Counters, CounterSnapshot{
					Name: f.name, Labels: labelMap(c.labels), Value: m.Value(),
				})
			case *Gauge:
				snap.Gauges = append(snap.Gauges, GaugeSnapshot{
					Name: f.name, Labels: labelMap(c.labels), Value: m.Value(),
				})
			case *Histogram:
				hs := HistogramSnapshot{Name: f.name, Labels: labelMap(c.labels)}
				counts := m.bucketCounts()
				var cum uint64
				for i, bound := range m.bounds {
					cum += counts[i]
					hs.Buckets = append(hs.Buckets, Bucket{UpperBound: bound, Count: cum})
				}
				hs.Count = cum + counts[len(counts)-1]
				hs.Sum = m.Sum()
				snap.Histograms = append(snap.Histograms, hs)
			}
		}
	}
	return snap
}

func matchLabels(have map[string]string, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// Counter looks up a counter value in the snapshot.
func (s *Snapshot) Counter(name string, labels ...Label) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && matchLabels(c.Labels, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge looks up a gauge value in the snapshot.
func (s *Snapshot) Gauge(name string, labels ...Label) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && matchLabels(g.Labels, labels) {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram looks up a histogram in the snapshot.
func (s *Snapshot) Histogram(name string, labels ...Label) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && matchLabels(h.Labels, labels) {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}
