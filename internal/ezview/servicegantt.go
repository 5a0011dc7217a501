package ezview

// Service-span Gantt rendering: the cluster-tier sibling of GanttSVG.
// Where the kernel Gantt lays out tile tasks per CPU, this lays out one
// distributed job's service spans per node — one horizontal lane per
// cluster node, one bar per stage (admit, queue, compute, proxy, ...),
// and a vertical hop edge wherever a span names a Peer, so a proxied
// submission or a replica fetch reads as an arrow from the caller's
// lane to the callee's.

import (
	"fmt"
	"time"

	"easypap/internal/trace"
)

// stageColors maps service stages to bar fills. Stages are open-ended
// (the cluster layer adds its own); unknown stages fall back to grey.
var stageColors = map[string]string{
	"admit":         "#7aa2f7",
	"queue":         "#e0af68",
	"lease":         "#bb9af7",
	"compute":       "#9ece6a",
	"cache_mem":     "#2ac3de",
	"cache_disk":    "#0db9d7",
	"replica_fetch": "#ff9e64",
	"spill":         "#73daca",
	"proxy":         "#f7768e",
	"replicate":     "#c0caf5",
	"gossip":        "#565f89",
}

func stageColor(stage string) string {
	if c, ok := stageColors[stage]; ok {
		return c
	}
	return "#787c99"
}

// ServiceGanttSVG renders a distributed trace's flat span set as an SVG
// document: nodes as rows (first-appearance order), spans as bars, hop
// edges where a span names a peer node. Spans with errors get a red
// outline. The caption defaults to "trace <id>".
func ServiceGanttSVG(spans []trace.Span, opt GanttOptions) string {
	// Node rows in first-appearance order — the entry node leads because
	// its admit span is the earliest.
	sorted := append([]trace.Span(nil), spans...)
	trace.SortSpans(sorted)
	rowOf := make(map[string]int)
	var nodes []string
	for _, s := range sorted {
		if _, ok := rowOf[s.Node]; !ok {
			rowOf[s.Node] = len(nodes)
			nodes = append(nodes, s.Node)
		}
	}
	caption := opt.Caption
	if caption == "" && len(sorted) > 0 {
		caption = "trace " + sorted[0].TraceID
	}
	t0, t1 := extent(len(sorted), func(i int) (int64, int64) { return sorted[i].Start, sorted[i].End })
	g := newGanttSVG(opt, 120, nodes, caption, t0, t1)

	// Span bars with tooltips; errored spans get a red outline.
	for _, s := range sorted {
		stroke := ""
		if s.Err != "" {
			stroke = ` stroke="#f7768e" stroke-width="1.5"`
		}
		tip := fmt.Sprintf("%s: %v", s.Stage, s.Duration().Round(time.Microsecond))
		if s.Peer != "" {
			tip += " → " + s.Peer
		}
		if s.Err != "" {
			tip += " [" + s.Err + "]"
		}
		g.bar(rowOf[s.Node], s.Start, s.End, stageColor(s.Stage), stroke, tip)
	}

	// Hop edges: a span naming a peer that owns a lane draws a dashed
	// vertical connector from the span's start to the peer's lane — the
	// visual of "this stage crossed the wire to that node".
	for _, s := range sorted {
		if s.Peer == "" {
			continue
		}
		peerRow, ok := rowOf[s.Peer]
		if !ok || s.Peer == s.Node {
			continue
		}
		x := g.x(s.Start)
		y1 := g.laneY(rowOf[s.Node]) + g.opt.LaneH/2
		y2 := g.laneY(peerRow) + g.opt.LaneH/2
		fmt.Fprintf(&g.b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#7dcfff" stroke-dasharray="3 3"><title>%s: %s → %s</title></line>`+"\n",
			x, y1, x, y2, xmlEscape(s.Stage), xmlEscape(s.Node), xmlEscape(s.Peer))
	}
	return g.end()
}
