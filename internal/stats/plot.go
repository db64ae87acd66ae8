package stats

import (
	"fmt"
	"math"
	"strings"
)

// PlotOptions controls ASCII rendering of a Table.
type PlotOptions struct {
	// Width/Height are the plot area dimensions in characters; zero
	// selects 64×20.
	Width, Height int
	// LogY plots log10(y) — the paper's latency figures use log axes.
	LogY bool
	// YLabel annotates the vertical axis.
	YLabel string
}

// seriesGlyphs mark successive series in a plot.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@'}

// Plot renders the table as an ASCII chart, one glyph per series, with a
// legend — a terminal rendition of the paper's figures.
func (t *Table) Plot(opts PlotOptions) string {
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 20
	}
	if len(t.Points) == 0 {
		return "# " + t.Name + " (no data)\n"
	}

	// Collect x range and y range over all series.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	yval := func(v float64) (float64, bool) {
		if opts.LogY {
			if v <= 0 {
				return 0, false
			}
			return math.Log10(v), true
		}
		return v, true
	}
	for _, p := range t.Points {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		for _, name := range t.Series {
			v, ok := yval(p.Y[name])
			if !ok {
				continue
			}
			if v < minY {
				minY = v
			}
			if v > maxY {
				maxY = v
			}
		}
	}
	if minX == maxX {
		maxX = minX + 1
	}
	if minY == maxY {
		maxY = minY + 1
	}

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for si, name := range t.Series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for _, p := range t.Points {
			v, ok := yval(p.Y[name])
			if !ok {
				continue
			}
			col := int((p.X - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((v-minY)/(maxY-minY)*float64(h-1))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = glyph
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Name)
	yfmt := func(v float64) string {
		if opts.LogY {
			return fmt.Sprintf("%9.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%9.3g", v)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", 9)
		switch i {
		case 0:
			label = yfmt(maxY)
		case h - 1:
			label = yfmt(minY)
		case h / 2:
			label = yfmt((minY + maxY) / 2)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%s %s\n", strings.Repeat(" ", 9), strings.Repeat("-", w+2))
	fmt.Fprintf(&b, "%s  %-10.4g%s%10.4g  (%s)\n",
		strings.Repeat(" ", 9), minX, strings.Repeat(" ", max(0, w-20)), maxX, t.XLabel)
	var legend []string
	for si, name := range t.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", seriesGlyphs[si%len(seriesGlyphs)], name))
	}
	fmt.Fprintf(&b, "%s  %s", strings.Repeat(" ", 9), strings.Join(legend, "  "))
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "  [y: %s", opts.YLabel)
		if opts.LogY {
			b.WriteString(", log scale")
		}
		b.WriteString("]")
	} else if opts.LogY {
		b.WriteString("  [log y]")
	}
	b.WriteString("\n")
	return b.String()
}
