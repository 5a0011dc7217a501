// Package gfx is the headless display layer: where EASYPAP opens SDL
// windows, this port materializes the same frames as PNG sequences (or
// discards them in performance mode). The per-iteration refresh path of the
// framework is identical; only the final sink differs (see DESIGN.md §1).
package gfx

import (
	"fmt"
	"os"
	"path/filepath"

	"easypap/internal/img2d"
)

// FrameSink receives one frame per displayed iteration. Window names
// distinguish the main view from the monitoring side windows ("main",
// "tiling", "activity", or "main-rank2" in MPI debug mode).
type FrameSink interface {
	// Frame delivers the rendered image for the given window and
	// iteration. Implementations must not retain img after returning:
	// a sink that encodes or writes the frame later (the daemon's hub
	// sink encodes on helper goroutines) copies it during the call. Such
	// a sink may return an earlier frame's error from a later call.
	Frame(window string, iter int, img *img2d.Image) error
	// Close flushes any buffered output: it returns once every frame
	// accepted so far is delivered, with the first error a delivery met.
	// The owner of a sink closes it on every path, failed runs included.
	Close() error
}

// Null is a sink that discards frames — the --no-display performance mode.
type Null struct{}

// Frame implements FrameSink by discarding the frame.
func (Null) Frame(string, int, *img2d.Image) error { return nil }

// Close implements FrameSink.
func (Null) Close() error { return nil }

// PNGSink writes frames as dir/<window>_<iter>.png. Every frame is written
// unless Every is set to n > 1, in which case only every n-th iteration is
// kept ("skipping frames" to accelerate the animation, as the paper's
// interactive mode allows).
type PNGSink struct {
	Dir   string
	Every int // keep one frame every Every iterations (0/1 = all)

	written int
}

// NewPNGSink creates the output directory eagerly so configuration errors
// surface before the run starts.
func NewPNGSink(dir string, every int) (*PNGSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gfx: %w", err)
	}
	return &PNGSink{Dir: dir, Every: every}, nil
}

// Frame implements FrameSink.
func (s *PNGSink) Frame(window string, iter int, img *img2d.Image) error {
	if s.Every > 1 && iter%s.Every != 0 {
		return nil
	}
	path := filepath.Join(s.Dir, fmt.Sprintf("%s_%04d.png", window, iter))
	if err := img.SavePNG(path); err != nil {
		return err
	}
	s.written++
	return nil
}

// Written returns the number of frames written so far.
func (s *PNGSink) Written() int { return s.written }

// Close implements FrameSink.
func (s *PNGSink) Close() error { return nil }

// Memory keeps the last frame of every window in memory — used by tests
// and by the examples to inspect what would have been displayed.
type Memory struct {
	Frames map[string]*img2d.Image // last frame per window
	Count  int
}

// NewMemory creates an empty in-memory sink.
func NewMemory() *Memory { return &Memory{Frames: make(map[string]*img2d.Image)} }

// Frame implements FrameSink by cloning the image (sinks must not retain
// the original).
func (m *Memory) Frame(window string, _ int, img *img2d.Image) error {
	m.Frames[window] = img.Clone()
	m.Count++
	return nil
}

// Close implements FrameSink.
func (m *Memory) Close() error { return nil }

// Multi fans frames out to several sinks.
type Multi []FrameSink

// Frame implements FrameSink, stopping at the first error.
func (m Multi) Frame(window string, iter int, img *img2d.Image) error {
	for _, s := range m {
		if err := s.Frame(window, iter, img); err != nil {
			return err
		}
	}
	return nil
}

// Close closes all sinks, returning the first error.
func (m Multi) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
