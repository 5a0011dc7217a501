package client

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"easypap/internal/serve"
	"easypap/internal/trace"
)

// Trace fetches the span tree for a job (GET /v1/trace/{id}). Against a
// clustered daemon the answer is the merged cluster-wide tree; a plain
// daemon answers from its local span ring.
func (c *Client) Trace(ctx context.Context, id string) (*serve.TraceDoc, error) {
	var doc serve.TraceDoc
	if err := c.callJSON(ctx, http.MethodGet, "/v1/trace/"+id, nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Trace fetches a job's merged span tree through the first endpoint that
// answers, preferring the client that accepted the submission (cluster
// job ids resolve from any member, but the entry node is the cheapest).
func (m *Multi) Trace(ctx context.Context, id string, preferred *Client) (*serve.TraceDoc, error) {
	cands := m.snapshotClients(m.rr.Add(1))
	if preferred != nil {
		ordered := []*Client{preferred}
		for _, c := range cands {
			if c != preferred {
				ordered = append(ordered, c)
			}
		}
		cands = ordered
	}
	var lastErr error
	for _, c := range cands {
		doc, err := c.Trace(ctx, id)
		if err == nil {
			return doc, nil
		}
		if !transient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: every endpoint failed fetching trace for %s: %w", id, lastErr)
}

// FormatTrace renders a span tree as indented text, one span per line:
//
//	trace 1f6e0a9c…  job n1a2b3c4.j-000017  nodes: n1a2b3c4, n5d6e7f8
//	[n1a2b3c4] admit                               41µs
//	[n1a2b3c4] └ proxy → n5d6e7f8               12.3ms
//	[n5d6e7f8] admit                              1.1ms
//	[n5d6e7f8] └ queue                            310µs
//
// Cross-node causality shows as → edges (Span.Peer), not indentation;
// indentation is same-node containment.
//
// Runs of identical leaf siblings — the sampled per-iteration halo spans
// of a distributed job are the canonical case — collapse into one line
// ("halo ×16" with their summed duration), so a sharded job's trace
// stays a screenful instead of a scroll.
func FormatTrace(doc *serve.TraceDoc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  job %s  nodes: %s\n",
		doc.TraceID, doc.Job, strings.Join(doc.Nodes, ", "))
	if len(doc.Spans) == 0 {
		b.WriteString("  (no spans recorded)\n")
		return b.String()
	}
	emit := func(s trace.Span, depth, count int, total time.Duration) {
		label := s.Stage
		if s.Peer != "" {
			label += " → " + s.Peer
		}
		if count > 1 {
			label += fmt.Sprintf(" ×%d", count)
		}
		indent := strings.Repeat("  ", depth)
		if depth > 0 {
			indent = strings.Repeat("  ", depth-1) + "└ "
		}
		line := fmt.Sprintf("[%s] %s%s", s.Node, indent, label)
		fmt.Fprintf(&b, "%-44s %10s", line, formatDur(total))
		if s.Err != "" {
			fmt.Fprintf(&b, "  !%s", s.Err)
		}
		b.WriteByte('\n')
	}
	// collapsible marks leaf siblings that may merge into one ×N line:
	// same node, same stage, same peer, no error, no children.
	collapsible := func(n *trace.SpanNode) bool {
		return len(n.Children) == 0 && n.Span.Err == "" && n.Span.Peer == ""
	}
	var walk func(n *trace.SpanNode, depth int)
	walkChildren := func(kids []*trace.SpanNode, depth int) {
		for i := 0; i < len(kids); {
			n := kids[i]
			if collapsible(n) {
				count, total := 0, time.Duration(0)
				j := i
				for ; j < len(kids); j++ {
					k := kids[j]
					if !collapsible(k) || k.Span.Stage != n.Span.Stage || k.Span.Node != n.Span.Node {
						break
					}
					count++
					total += k.Span.Duration()
				}
				if count > 1 {
					emit(n.Span, depth, count, total)
					i = j
					continue
				}
			}
			walk(n, depth)
			i++
		}
	}
	walk = func(n *trace.SpanNode, depth int) {
		emit(n.Span, depth, 1, n.Span.Duration())
		walkChildren(n.Children, depth+1)
	}
	walkChildren(doc.Spans, 0)
	return b.String()
}

// formatDur rounds a duration to three significant-ish digits so columns
// stay narrow (1.234567ms → 1.234ms).
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(time.Nanosecond).String()
	}
	return d.String()
}
