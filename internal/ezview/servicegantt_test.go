package ezview

import (
	"strings"
	"testing"

	"easypap/internal/trace"
)

func serviceSpans() []trace.Span {
	return []trace.Span{
		{TraceID: "t1", Node: "n-entry", Stage: "admit", Start: 0, End: 100_000},
		{TraceID: "t1", Node: "n-entry", Stage: "proxy", Peer: "n-owner", Start: 10_000, End: 90_000},
		{TraceID: "t1", Node: "n-owner", Stage: "admit", Start: 20_000, End: 80_000},
		{TraceID: "t1", Node: "n-owner", Stage: "queue", Start: 25_000, End: 40_000},
		{TraceID: "t1", Node: "n-owner", Stage: "compute", Start: 40_000, End: 78_000, Err: "boom <&>"},
	}
}

func TestServiceGanttSVG(t *testing.T) {
	svg := ServiceGanttSVG(serviceSpans(), GanttOptions{Width: 800})

	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("not an SVG document:\n%.200s", svg)
	}
	// One lane label per node, entry first (earliest span).
	if !strings.Contains(svg, ">n-entry</text>") || !strings.Contains(svg, ">n-owner</text>") {
		t.Errorf("missing node lane labels")
	}
	if strings.Index(svg, ">n-entry</text>") > strings.Index(svg, ">n-owner</text>") {
		t.Errorf("entry node is not the first lane")
	}
	// One bar per span (5 rects + background).
	if got := strings.Count(svg, "<rect "); got != len(serviceSpans())+1 {
		t.Errorf("rect count = %d, want %d spans + background", got, len(serviceSpans()))
	}
	// The hop edge: proxy names a peer with its own lane.
	if !strings.Contains(svg, "proxy: n-entry → n-owner") {
		t.Errorf("missing hop edge tooltip")
	}
	// Error outline and escaped tooltip.
	if !strings.Contains(svg, `stroke="#f7768e"`) {
		t.Errorf("errored span has no red outline")
	}
	if strings.Contains(svg, "boom <&>") || !strings.Contains(svg, "boom &lt;&amp;&gt;") {
		t.Errorf("tooltip not XML-escaped")
	}
	// Default caption names the trace.
	if !strings.Contains(svg, "trace t1") {
		t.Errorf("default caption missing trace id")
	}
}

func TestServiceGanttEmpty(t *testing.T) {
	svg := ServiceGanttSVG(nil, GanttOptions{Caption: "empty"})
	if !strings.Contains(svg, "empty") || !strings.Contains(svg, "</svg>") {
		t.Fatalf("empty span set must still render a document:\n%s", svg)
	}
}
