// Package viz renders CA-SC instances and assignments as standalone SVG —
// the quickest way to see what a solver actually did: worker positions and
// working areas, task positions and capacities, and assignment edges
// connecting each dispatched group. The output needs no external assets
// and opens in any browser.
package viz

import (
	"fmt"
	"io"
	"os"
	"strings"

	"casc/internal/model"
)

// Options control rendering.
type Options struct {
	// Size is the square canvas side in pixels (default 800).
	Size int
	// ShowAreas draws each worker's working-area circle.
	ShowAreas bool
	// ShowUnassigned keeps workers without a task visible (default on when
	// rendering a plain instance; always on).
	Title string
}

// colors for assignment groups, cycled per task.
var groupColors = []string{
	"#4363d8", "#e6194B", "#3cb44b", "#f58231", "#911eb4",
	"#42d4f4", "#f032e6", "#9A6324", "#469990", "#808000",
}

// Assignment renders the instance with assignment edges and per-group
// colors; a nil assignment renders the instance alone.
func Assignment(w io.Writer, in *model.Instance, a *model.Assignment, opt Options) error {
	return render(w, in, a, opt)
}

// SaveAssignment writes the rendering to a file.
func SaveAssignment(path string, in *model.Instance, a *model.Assignment, opt Options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Assignment(f, in, a, opt); err != nil {
		return err
	}
	return f.Close()
}

func render(w io.Writer, in *model.Instance, a *model.Assignment, opt Options) error {
	size := opt.Size
	if size <= 0 {
		size = 800
	}
	s := float64(size)
	px := func(v float64) float64 { return v * s }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		size, size, size, size)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#fafafa"/>`+"\n", size, size)
	if opt.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" fill="#333">%s</text>`+"\n",
			10, escape(opt.Title))
	}

	// Working areas first (underneath everything).
	if opt.ShowAreas {
		for _, wk := range in.Workers {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#4363d8" fill-opacity="0.04" stroke="#4363d8" stroke-opacity="0.15"/>`+"\n",
				px(wk.Loc.X), px(wk.Loc.Y), px(wk.Radius))
		}
	}

	// Assignment edges.
	if a != nil {
		for t, ws := range a.TaskWorkers {
			if len(ws) == 0 {
				continue
			}
			color := groupColors[t%len(groupColors)]
			task := in.Tasks[t]
			for _, wi := range ws {
				wk := in.Workers[wi]
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.5" stroke-opacity="0.8"/>`+"\n",
					px(wk.Loc.X), px(wk.Loc.Y), px(task.Loc.X), px(task.Loc.Y), color)
			}
		}
	}

	// Tasks: squares sized by capacity.
	for t, task := range in.Tasks {
		color := "#555"
		served := false
		if a != nil && len(a.TaskWorkers[t]) >= in.B {
			color = groupColors[t%len(groupColors)]
			served = true
		}
		half := 4.0 + float64(task.Capacity)
		fill := "none"
		if served {
			fill = color
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.85" stroke="%s" stroke-width="1.5"/>`+"\n",
			px(task.Loc.X)-half, px(task.Loc.Y)-half, 2*half, 2*half, fill, color)
	}

	// Workers: triangles (assigned take their group color).
	for wi, wk := range in.Workers {
		color := "#999"
		if a != nil {
			if t := a.WorkerTask[wi]; t != model.Unassigned {
				color = groupColors[t%len(groupColors)]
			}
		}
		x, y := px(wk.Loc.X), px(wk.Loc.Y)
		fmt.Fprintf(&b, `<path d="M %.1f %.1f L %.1f %.1f L %.1f %.1f Z" fill="%s"/>`+"\n",
			x, y-5, x-4.5, y+4, x+4.5, y+4, color)
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
