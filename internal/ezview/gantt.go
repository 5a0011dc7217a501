package ezview

// SVG Gantt chart rendering: the left panel of the EASYVIEW window
// (Fig. 7). One horizontal lane per CPU, one rectangle per task colored by
// CPU (consistent with the monitoring windows), with hover tooltips
// carrying the task duration — the pop-up bubble of the interactive tool
// becomes an SVG <title> element.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"easypap/internal/img2d"
	"easypap/internal/trace"
)

// GanttOptions parameterizes rendering.
type GanttOptions struct {
	Width   int // SVG width in px (default 1200)
	LaneH   int // lane height in px (default 28)
	IterLo  int // first iteration (default 1)
	IterHi  int // last iteration (default: all)
	Caption string
}

// GanttSVG renders the trace's events as an SVG document.
func (v *View) GanttSVG(opt GanttOptions) string {
	if opt.IterLo <= 0 {
		opt.IterLo = 1
	}
	if opt.IterHi <= 0 {
		opt.IterHi = max(v.Trace.Iterations(), 1)
	}
	events := v.Trace.ForIterRange(opt.IterLo, opt.IterHi)
	rows := v.Rows()
	rowIndex := make(map[int]int, len(rows))
	lanes := make([]string, len(rows))
	for i, cpu := range rows {
		rowIndex[cpu] = i
		lanes[i] = fmt.Sprintf("CPU %d", cpu)
	}
	caption := opt.Caption
	if caption == "" {
		caption = fmt.Sprintf("%s/%s dim=%d iterations %d..%d",
			v.Trace.Meta.Kernel, v.Trace.Meta.Variant, v.Trace.Meta.Dim, opt.IterLo, opt.IterHi)
	}
	t0, t1 := extent(len(events), func(i int) (int64, int64) { return events[i].Start, events[i].End })
	g := newGanttSVG(opt, 80, lanes, caption, t0, t1)

	// Task rectangles with duration tooltips.
	for _, e := range events {
		cpu := v.GlobalCPU(int(e.Rank), int(e.CPU))
		row, ok := rowIndex[cpu]
		if !ok {
			continue
		}
		g.bar(row, e.Start, e.End, fmt.Sprintf("#%06x", img2d.CPUColor(cpu)>>8), "",
			fmt.Sprintf("%s tile(%d,%d %dx%d) iter %d: %v",
				e.Kind, e.X, e.Y, e.W, e.H, e.Iter, e.Duration().Round(time.Microsecond)))
	}

	// Iteration boundaries as vertical dashed lines.
	for iter := opt.IterLo; iter <= opt.IterHi; iter++ {
		s, _ := v.Trace.IterSpan(iter)
		if s == 0 && iter > 1 {
			continue
		}
		fmt.Fprintf(&g.b, `<line x1="%.1f" y1="28" x2="%.1f" y2="%d" stroke="#555" stroke-dasharray="4 3"/>`+"\n",
			g.x(s), g.x(s), g.height-10)
	}
	return g.end()
}

// ganttSVG is the lane-and-bar writer both Gantt charts draw through: a
// caption over one labeled lane per row, and bars with hover tooltips
// on a time axis. The kernel chart's lanes are CPUs, the service
// chart's are nodes; each adds its own overlay (iteration lines, hop
// edges) through b, x and laneY before end closes the document.
type ganttSVG struct {
	b      strings.Builder
	opt    GanttOptions
	labelW int // px left of the time axis, for lane labels
	height int
	t0, t1 int64 // the time axis spans [t0, t1)
}

// newGanttSVG writes the document header, the caption and the lanes.
func newGanttSVG(opt GanttOptions, labelW int, lanes []string, caption string, t0, t1 int64) *ganttSVG {
	if opt.Width <= 0 {
		opt.Width = 1200
	}
	if opt.LaneH <= 0 {
		opt.LaneH = 28
	}
	g := &ganttSVG{opt: opt, labelW: labelW, height: (len(lanes)+1)*opt.LaneH + 40, t0: t0, t1: t1}
	fmt.Fprintf(&g.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n",
		opt.Width, g.height)
	fmt.Fprintf(&g.b, `<rect width="100%%" height="100%%" fill="#16161c"/>`+"\n")
	fmt.Fprintf(&g.b, `<text x="10" y="20" fill="#ddd" font-size="14">%s</text>`+"\n", xmlEscape(caption))

	// Lane labels and separators.
	for i, lane := range lanes {
		y := g.laneY(i)
		fmt.Fprintf(&g.b, `<text x="8" y="%d" fill="#aaa" font-size="12">%s</text>`+"\n",
			y+opt.LaneH*2/3, xmlEscape(lane))
		fmt.Fprintf(&g.b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#2a2a33"/>`+"\n",
			labelW, y, opt.Width-20, y)
	}
	return g
}

// extent returns the time axis of n spans: the earliest start and the
// latest end, at least 1 ns apart.
func extent(n int, span func(int) (start, end int64)) (t0, t1 int64) {
	for i := 0; i < n; i++ {
		s, e := span(i)
		if i == 0 || s < t0 {
			t0 = s
		}
		if e > t1 {
			t1 = e
		}
	}
	if t1 <= t0 {
		t1 = t0 + 1
	}
	return t0, t1
}

// x maps a time onto the chart's horizontal axis.
func (g *ganttSVG) x(t int64) float64 {
	return float64(g.labelW) + float64(t-g.t0)/float64(g.t1-g.t0)*float64(g.opt.Width-g.labelW-20)
}

// laneY returns the top of a lane.
func (g *ganttSVG) laneY(row int) int { return 30 + row*g.opt.LaneH }

// bar draws the span [start, end] on a lane, at least half a pixel
// wide: fill is its color, attrs any extra attributes (an outline), tip
// its tooltip.
func (g *ganttSVG) bar(row int, start, end int64, fill, attrs, tip string) {
	x := g.x(start)
	wpx := g.x(end) - x
	if wpx < 0.5 {
		wpx = 0.5
	}
	fmt.Fprintf(&g.b,
		`<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"%s><title>%s</title></rect>`+"\n",
		x, g.laneY(row)+2, wpx, g.opt.LaneH-4, fill, attrs, xmlEscape(tip))
}

// end closes the document and returns it.
func (g *ganttSVG) end() string {
	g.b.WriteString("</svg>\n")
	return g.b.String()
}

// SaveGanttSVG writes the chart to path, creating parent directories.
func (v *View) SaveGanttSVG(path string, opt GanttOptions) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("ezview: %w", err)
	}
	return os.WriteFile(path, []byte(v.GanttSVG(opt)), 0o644)
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// CompareReport renders the Fig. 10 workflow: two traces of the same
// kernel side by side, with the whole-run speedup and the per-task
// distribution shift ("many tasks are approximately 10 times faster").
func CompareReport(a, b *trace.Trace) (string, error) {
	res, err := trace.Compare(a, b)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(res.String())
	sb.WriteString("\n")
	// Highlight the fast/slow task populations (inner vs border tiles in
	// the blur study): report the ratio between A's median and B's p10-ish
	// fastest quartile to expose the bimodal shift.
	fast := fastestQuartileMedian(b.Events)
	if fast > 0 {
		ratio := float64(trace.Durations(a.Events).Median) / float64(fast)
		fmt.Fprintf(&sb, "fastest-quartile ratio (A median / B fast tasks): %.1fx\n", ratio)
	}
	return sb.String(), nil
}

// fastestQuartileMedian returns the median duration of the fastest quarter
// of events.
func fastestQuartileMedian(events []trace.Event) time.Duration {
	if len(events) < 4 {
		return 0
	}
	ds := make([]time.Duration, len(events))
	for i, e := range events {
		ds[i] = e.Duration()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	quart := ds[:len(ds)/4]
	return quart[len(quart)/2]
}
