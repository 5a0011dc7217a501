package trace

// Service-tier spans: the distributed sibling of the per-tile Event.
//
// A kernel Event is relative to one recorder's epoch because tile traces
// are single-process. A service Span crosses processes — a job admitted
// on node A, computed on node B, and replica-pushed to node C must merge
// onto one time axis — so spans carry wall-clock unix nanoseconds.
// NTP-level skew between nodes is acceptable at the µs..ms scales the
// service tier operates at (and EASYVIEW renders).
//
// Spans are correlated by trace id: every submission mints one (or
// inherits one from the X-Easypap-Trace header on a proxied hop), and
// each node files its spans for that id into its SpanRing. GET
// /v1/trace/{job} gathers every node's spans for the id and nests them
// by containment into one tree.

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Span is one service-level operation on one node. Start/End are
// wall-clock unix nanoseconds (not recorder-relative like Event.Start).
type Span struct {
	TraceID string `json:"trace_id"`
	Job     string `json:"job,omitempty"`  // job id on the recording node
	Node    string `json:"node,omitempty"` // recording node's id
	Stage   string `json:"stage"`          // admit, queue, compute, proxy, ...
	Peer    string `json:"peer,omitempty"` // remote node id/url for hop stages
	Start   int64  `json:"start"`          // unix ns
	End     int64  `json:"end"`            // unix ns
	Err     string `json:"err,omitempty"`  // non-empty when the stage failed
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// NewTraceID returns a fresh 16-hex-char trace id (64 random bits).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a time-derived id rather than panicking in a request path.
		now := uint64(time.Now().UnixNano())
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// SpanRing is a fixed-capacity ring buffer of service spans. Service
// spans are recorded at µs..ms cadence (admission, queueing, compute),
// far off the tile dispatch hot path, so a mutex is the right tool: the
// ring stays readable while jobs run and old spans age out naturally.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next int  // next write position
	wrap bool // buf has wrapped at least once
}

// DefaultSpanRingSize holds a few hundred jobs' worth of service spans
// (≈8 spans per job) — enough history for post-hoc trace queries without
// unbounded growth.
const DefaultSpanRingSize = 4096

// NewSpanRing creates a ring holding up to size spans (DefaultSpanRingSize
// if size <= 0).
func NewSpanRing(size int) *SpanRing {
	if size <= 0 {
		size = DefaultSpanRingSize
	}
	return &SpanRing{buf: make([]Span, size)}
}

// Record appends a span, overwriting the oldest when full.
func (r *SpanRing) Record(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
}

// snapshotLocked returns live spans in recording order. Caller holds mu.
func (r *SpanRing) snapshotLocked() []Span {
	if !r.wrap {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// ForTrace returns all recorded spans carrying the trace id, in start
// order.
func (r *SpanRing) ForTrace(traceID string) []Span {
	r.mu.Lock()
	all := r.snapshotLocked()
	r.mu.Unlock()
	var out []Span
	for _, s := range all {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	SortSpans(out)
	return out
}

// TraceIDOf returns the trace id recorded for the job, or "" when the
// job's spans have aged out of the ring.
func (r *SpanRing) TraceIDOf(job string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Scan newest-first so a reused job id resolves to its latest trace.
	n := len(r.buf)
	limit := r.next
	if r.wrap {
		limit = n
	}
	for i := 0; i < limit; i++ {
		idx := (r.next - 1 - i + n) % n
		if r.buf[idx].Job == job {
			return r.buf[idx].TraceID
		}
	}
	return ""
}

// SortSpans orders spans by start time, widest first on ties (parents
// lead their children), then stage name for determinism.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].End != spans[j].End {
			return spans[i].End > spans[j].End // wider span first: parents lead
		}
		return spans[i].Stage < spans[j].Stage
	})
}

// SpanNode is one node of a nested span tree.
type SpanNode struct {
	Span     Span        `json:"span"`
	Children []*SpanNode `json:"children,omitempty"`
}

// NestSpans builds span trees by containment: a span becomes a child of
// the tightest same-node span that fully contains it; spans not
// contained by anything become roots. Containment only nests within one
// node — cross-node causality is an edge (Span.Peer), not a parent link
// — so spans are grouped by node before nesting and roots from all
// nodes merge in start order. The input is not modified.
func NestSpans(spans []Span) []*SpanNode {
	byNode := make(map[string][]Span)
	for _, s := range spans {
		byNode[s.Node] = append(byNode[s.Node], s)
	}
	var roots []*SpanNode
	for _, group := range byNode {
		SortSpans(group)
		var stack []*SpanNode // current containment chain within the node
		for _, s := range group {
			n := &SpanNode{Span: s}
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if top.Span.Start <= s.Start && s.End <= top.Span.End {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				roots = append(roots, n)
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].Span.Start != roots[j].Span.Start {
			return roots[i].Span.Start < roots[j].Span.Start
		}
		return roots[i].Span.Node < roots[j].Span.Node
	})
	return roots
}
