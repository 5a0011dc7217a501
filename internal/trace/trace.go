// Package trace holds per-tile profiling events for post-mortem analysis
// — the substrate behind EASYPAP's --trace option and the EASYVIEW
// explorer (paper §II-D): the EZPT file format, the Trace type and its
// queries.
//
// Events carry exactly the information the paper lists: start/end time,
// tile coordinates and the executing CPU, plus the iteration number and the
// MPI rank so multi-process traces can be merged. A run records them on
// the monitor's wait-free per-worker lanes (internal/monitor), and with
// tracing on the run's Trace is the monitor's iterations' events,
// concatenated.
package trace

import (
	"fmt"
	"time"
)

// EventKind distinguishes tile computations from dependent tasks.
type EventKind uint8

const (
	// KindTile is a do_tile execution: the fundamental unit the paper's
	// Gantt charts display.
	KindTile EventKind = iota
	// KindTask is a dependent task execution (taskdep kernels).
	KindTask
)

// String returns a short name for the kind.
func (k EventKind) String() string {
	switch k {
	case KindTile:
		return "tile"
	case KindTask:
		return "task"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded span. Times are nanoseconds relative to the
// recording start, so traces from different runs can be compared directly.
//
// Work is the span's performance-counter value: the number of work units
// the task performed (escape iterations for mandel, pixels for stencils).
// It is the substitution for the per-task PAPI cache counters the paper
// lists as future work — a hardware-independent counter that EASYVIEW can
// correlate with task durations the same way.
type Event struct {
	Iter  int32     // iteration number (1-based, like EASYPAP's reports)
	CPU   int16     // worker rank within the process
	Rank  int16     // MPI process rank (0 when not distributed)
	Kind  EventKind //
	Start int64     // ns since trace start
	End   int64     // ns since trace start
	X     int32     // tile rectangle
	Y     int32
	W     int32
	H     int32
	Work  int64 // per-task counter (0 when the kernel does not report it)
}

// Duration returns the span length.
func (e Event) Duration() time.Duration { return time.Duration(e.End - e.Start) }

// Meta is the trace header: everything needed to interpret and label the
// events, mirroring the configuration block EASYPAP stores with each trace.
type Meta struct {
	Kernel     string    `json:"kernel"`
	Variant    string    `json:"variant"`
	Dim        int       `json:"dim"`
	TileW      int       `json:"tile_w"`
	TileH      int       `json:"tile_h"`
	Threads    int       `json:"threads"`
	Ranks      int       `json:"ranks"` // number of MPI processes (1 if none)
	Iterations int       `json:"iterations"`
	Schedule   string    `json:"schedule"`
	Label      string    `json:"label"` // free-form run label
	Recorded   time.Time `json:"recorded"`
}

// Trace is a finalized, immutable recording.
type Trace struct {
	Meta   Meta
	Events []Event
}

// Iterations returns the highest iteration number present (0 for an empty
// trace).
func (t *Trace) Iterations() int {
	maxIter := 0
	for _, e := range t.Events {
		if int(e.Iter) > maxIter {
			maxIter = int(e.Iter)
		}
	}
	return maxIter
}

// ForIter returns the events of one iteration, preserving start order.
func (t *Trace) ForIter(iter int) []Event {
	var out []Event
	for _, e := range t.Events {
		if int(e.Iter) == iter {
			out = append(out, e)
		}
	}
	return out
}

// ForIterRange returns the events whose iteration lies in [lo, hi].
func (t *Trace) ForIterRange(lo, hi int) []Event {
	var out []Event
	for _, e := range t.Events {
		if int(e.Iter) >= lo && int(e.Iter) <= hi {
			out = append(out, e)
		}
	}
	return out
}

// PerCPU groups events by (rank, cpu) and returns a map keyed by
// rank*threads+cpu with events in start order. Global CPU numbering is what
// EASYVIEW's Gantt rows use.
func (t *Trace) PerCPU() map[int][]Event {
	out := make(map[int][]Event)
	for _, e := range t.Events {
		key := int(e.Rank)*t.Meta.Threads + int(e.CPU)
		out[key] = append(out[key], e)
	}
	return out
}

// Span returns the earliest start and latest end over all events.
func (t *Trace) Span() (start, end int64) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	start, end = t.Events[0].Start, t.Events[0].End
	for _, e := range t.Events {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return
}

// IterSpan returns the wall-clock span of one iteration.
func (t *Trace) IterSpan(iter int) (start, end int64) {
	first := true
	for _, e := range t.Events {
		if int(e.Iter) != iter {
			continue
		}
		if first {
			start, end = e.Start, e.End
			first = false
			continue
		}
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return
}
