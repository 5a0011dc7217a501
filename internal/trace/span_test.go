package trace

import (
	"fmt"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace ids %q %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two trace ids collided: %q", a)
	}
}

func TestSpanRingQueries(t *testing.T) {
	r := NewSpanRing(16)
	r.Record(Span{TraceID: "t1", Job: "j-1", Node: "n1", Stage: "admit", Start: 10, End: 20})
	r.Record(Span{TraceID: "t1", Job: "j-1", Node: "n1", Stage: "compute", Start: 20, End: 90})
	r.Record(Span{TraceID: "t2", Job: "j-2", Node: "n1", Stage: "admit", Start: 30, End: 35})
	if got := r.ForTrace("t1"); len(got) != 2 {
		t.Fatalf("ForTrace(t1) = %d spans, want 2", len(got))
	}
	if id := r.TraceIDOf("j-1"); id != "t1" {
		t.Fatalf("TraceIDOf(j-1) = %q, want t1", id)
	}
	if id := r.TraceIDOf("j-404"); id != "" {
		t.Fatalf("TraceIDOf(missing) = %q, want empty", id)
	}
}

func TestSpanRingWraps(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{TraceID: "t", Job: fmt.Sprintf("j-%d", i), Stage: "s", Start: int64(i)})
	}
	got := r.ForTrace("t")
	if len(got) != 4 {
		t.Fatalf("ring of 4 returned %d spans", len(got))
	}
	// Only the newest four survive.
	for i, s := range got {
		if want := fmt.Sprintf("j-%d", 6+i); s.Job != want {
			t.Errorf("span %d = job %q, want %q", i, s.Job, want)
		}
	}
	// Reused job id resolves to the newest trace.
	r.Record(Span{TraceID: "old", Job: "dup", Start: 100})
	r.Record(Span{TraceID: "new", Job: "dup", Start: 200})
	if id := r.TraceIDOf("dup"); id != "new" {
		t.Fatalf("TraceIDOf(dup) = %q, want newest trace", id)
	}
}

func TestNestSpansContainment(t *testing.T) {
	spans := []Span{
		{TraceID: "t", Node: "n1", Stage: "request", Start: 0, End: 100},
		{TraceID: "t", Node: "n1", Stage: "queue", Start: 10, End: 30},
		{TraceID: "t", Node: "n1", Stage: "compute", Start: 30, End: 90},
		{TraceID: "t", Node: "n1", Stage: "lease", Start: 31, End: 35},
	}
	roots := NestSpans(spans)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	req := roots[0]
	if req.Span.Stage != "request" || len(req.Children) != 2 {
		t.Fatalf("root = %s with %d children, want request/2", req.Span.Stage, len(req.Children))
	}
	compute := req.Children[1]
	if compute.Span.Stage != "compute" || len(compute.Children) != 1 || compute.Children[0].Span.Stage != "lease" {
		t.Fatalf("compute subtree wrong: %+v", compute)
	}
}

// TestNestSpansCrossNode pins the property the first implementation got
// wrong: a span from another node interleaved in time must not break
// same-node containment.
func TestNestSpansCrossNode(t *testing.T) {
	spans := []Span{
		{TraceID: "t", Node: "n1", Stage: "request", Start: 0, End: 100},
		{TraceID: "t", Node: "n2", Stage: "compute", Start: 10, End: 50}, // remote, interleaved
		{TraceID: "t", Node: "n1", Stage: "fetch", Start: 60, End: 90},   // still n1's child
	}
	roots := NestSpans(spans)
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (one per node)", len(roots))
	}
	if roots[0].Span.Node != "n1" || roots[1].Span.Node != "n2" {
		t.Fatalf("root order: %s, %s", roots[0].Span.Node, roots[1].Span.Node)
	}
	n1 := roots[0]
	if len(n1.Children) != 1 || n1.Children[0].Span.Stage != "fetch" {
		t.Fatalf("n1 lost its contained child: %+v", n1.Children)
	}
}

func TestNestSpansDoesNotMutateInput(t *testing.T) {
	spans := []Span{
		{Node: "n", Stage: "b", Start: 5, End: 6},
		{Node: "n", Stage: "a", Start: 0, End: 10},
	}
	NestSpans(spans)
	if spans[0].Stage != "b" {
		t.Fatal("NestSpans reordered its input slice")
	}
}
