package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4): one # HELP and # TYPE line per family, then one sample
// line per child, histograms expanded into cumulative _bucket{le=...}
// series plus _sum and _count.

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra appends one more pair (used for
// histogram le labels). Empty input renders as "".
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every metric in the registry to w.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range r.sortedChildren(f) {
			switch m := c.metric.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(c.labels), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(c.labels), formatFloat(m.Value()))
			case *Histogram:
				counts := m.bucketCounts()
				var cum uint64
				for i, bound := range m.bounds {
					cum += counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, labelString(c.labels, L("le", formatFloat(bound))), cum)
				}
				cum += counts[len(counts)-1]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(c.labels, L("le", "+Inf")), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(c.labels), formatFloat(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(c.labels), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
