package serve

// The pipelined hub sink against a one-frame-at-a-time reference, its
// error contract, and its encoders' lifetime.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
)

// capturedFrame is one delivery to a sink, copied at the call.
type capturedFrame struct {
	window string
	iter   int
	img    *img2d.Image
	dirty  *gfx.TileSet // nil for a plain Frame call
}

// teeSink records every delivery, then hands it on to the sink under
// test with the run's own image, which the kernel overwrites once the
// call returns.
type teeSink struct {
	frames []capturedFrame
	next   *hubSink
}

func (t *teeSink) Frame(window string, iter int, img *img2d.Image) error {
	t.frames = append(t.frames, capturedFrame{window, iter, img.Clone(), nil})
	return t.next.Frame(window, iter, img)
}

func (t *teeSink) FrameDirty(window string, iter int, img *img2d.Image, dirty *gfx.TileSet) error {
	d := *dirty
	d.Tiles = slices.Clone(dirty.Tiles)
	t.frames = append(t.frames, capturedFrame{window, iter, img.Clone(), &d})
	return t.next.FrameDirty(window, iter, img, dirty)
}

func (t *teeSink) Close() error { return nil }

// oneAtATime is the reference: each frame's records built on its own,
// in delivery order, from img.EncodePNG, gfx.EncodeDelta against the
// window's previous frame, and the keyframe rule.
func oneAtATime(t *testing.T, frames []capturedFrame, every int) []hubRecord {
	t.Helper()
	count := map[string]int{}
	prev := map[string]*img2d.Image{}
	var out []hubRecord
	for _, f := range frames {
		var png bytes.Buffer
		if err := f.img.EncodePNG(&png); err != nil {
			t.Fatal(err)
		}
		full, err := gfx.EncodeFrameRecord(f.window, f.iter, png.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		n := count[f.window]
		count[f.window]++
		rec := hubRecord{window: f.window, key: true, full: full}
		if p := prev[f.window]; f.dirty != nil && p != nil && n%every != 0 {
			payload, err := gfx.EncodeDelta(f.img, changedTiles(f.img, p, f.dirty))
			if err != nil {
				t.Fatal(err)
			}
			delta, err := gfx.EncodeDeltaRecord(f.window, f.iter, payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(delta) < len(full) {
				rec.key, rec.delta = false, delta
			}
		}
		prev[f.window] = f.img
		out = append(out, rec)
	}
	return out
}

// TestHubSinkPipelineMatchesOneAtATime runs lazy jobs of every stencil
// kernel, and a monitored job with four windows, into the pipelined
// sink under GOMAXPROCS 1 and 2. The hub's records must equal the
// one-at-a-time reference's in bytes, order and key flags.
func TestHubSinkPipelineMatchesOneAtATime(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"life random", core.Config{Kernel: "life", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 24, Threads: 2, Seed: 3}},
		{"life diag", core.Config{Kernel: "life", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 24, Threads: 2, Arg: "diag"}},
		{"fire forest", core.Config{Kernel: "fire", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 24, Threads: 2, Seed: 7}},
		{"sandpile", core.Config{Kernel: "sandpile", Variant: "lazy_omp", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 24, Threads: 2}},
		{"asandpile", core.Config{Kernel: "asandpile", Variant: "lazy_omp", Dim: 64,
			TileW: 4, TileH: 4, Iterations: 60, Threads: 2}},
		// Four windows, three of them 512² monitoring images: a few
		// iterations interleave them enough.
		{"life monitored", core.Config{Kernel: "life", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 4, Threads: 2, Seed: 5, Monitoring: true}},
	}
	const every = 5 // keyframes by cadence, by size and by a first frame
	for _, procs := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				h := NewFrameHub(HubOptions{MaxRecords: 1 << 16, MaxBytes: 1 << 40, KeyframeEvery: every})
				tee := &teeSink{next: newHubSink(h)}
				if _, err := core.RunWith(context.Background(), tc.cfg, core.RunOptions{Sink: tee}); err != nil {
					t.Fatal(err)
				}
				if err := tee.next.Close(); err != nil {
					t.Fatal(err)
				}
				h.Close()

				want := oneAtATime(t, tee.frames, every)
				got := h.ring
				if len(got) != len(want) {
					t.Fatalf("hub holds %d records, the reference %d", len(got), len(want))
				}
				windows, deltas := map[string]bool{}, 0
				for i := range want {
					g, w := got[i], want[i]
					if g.window != w.window || g.key != w.key ||
						!bytes.Equal(g.full, w.full) || !bytes.Equal(g.delta, w.delta) {
						t.Fatalf("record %d: got %s key=%v (%d B full, %d B delta), want %s key=%v (%d B, %d B)",
							i, g.window, g.key, len(g.full), len(g.delta), w.window, w.key, len(w.full), len(w.delta))
					}
					windows[g.window] = true
					if !g.key {
						deltas++
					}
				}
				if deltas == 0 {
					t.Error("no delta record: the comparison never left the keyframe path")
				}
				if tc.cfg.Monitoring && len(windows) != 4 {
					t.Errorf("monitored job streamed windows %v, want four", windows)
				}
			})
		}
	}
}

// TestHubSinkPipelineRefusedPublish: a record the hub refuses comes back
// as the sink's error, synchronously for a window's first frame (encoded
// inline) and otherwise from a later Frame call and from Close.
func TestHubSinkPipelineRefusedPublish(t *testing.T) {
	var stats HubStats
	h := NewFrameHub(HubOptions{Stats: &stats})
	img := img2d.New(32)
	s := newHubSink(h)
	if err := s.Frame("main", 1, img); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// Handed-off frames fail once the first refusal lands; the in-flight
	// bound makes a later hand-off wait for it.
	var err error
	for iter := 2; err == nil && iter < runtime.GOMAXPROCS(0)+4; iter++ {
		err = s.Frame("main", iter, img)
	}
	if !errors.Is(err, ErrHubClosed) {
		t.Fatalf("frames after the hub closed: got %v, want ErrHubClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Close after a refused record: got %v, want ErrHubClosed", err)
	}
	if err := s.Frame("main", 99, img); err == nil {
		t.Fatal("a frame after Close was accepted")
	}
	if got := stats.PostCloseDrops.Load(); got != 1 {
		t.Errorf("PostCloseDrops = %d, want 1: frames after the first refusal are dropped unsent", got)
	}

	first := newHubSink(h)
	if err := first.Frame("main", 1, img); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("first frame on a closed hub: got %v, want ErrHubClosed", err)
	}
	if err := first.Close(); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Close: got %v, want ErrHubClosed", err)
	}
}

// TestHubSinkPipelineCancelLeavesNoEncoder cancels a long frames job
// while its viewer streams: the stream ends cleanly, and no encoder
// goroutine of the job's sink is left.
func TestHubSinkPipelineCancelLeavesNoEncoder(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Mandel never converges: the job runs until it is canceled.
	st, err := m.Submit(core.Config{Kernel: "mandel", Variant: "seq", Dim: 128, TileW: 16, TileH: 16,
		Iterations: 100000, Threads: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := m.FrameStream(ctx, st.ID, gfx.FormatFull)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := io.ReadFull(rd, make([]byte, 64<<10)); err != nil {
		t.Fatalf("reading the live stream: %v", err)
	}
	if !encodersRunning() {
		t.Fatal("no encoder goroutine while the job streams frames")
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = m.Wait(ctx, st.ID); err != nil || st.State != JobCanceled {
		t.Fatalf("job after cancel: %+v (%v)", st, err)
	}
	if _, err := io.Copy(io.Discard, rd); err != nil {
		t.Fatalf("stream of a canceled job: %v, want a clean EOF", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for encodersRunning() {
		if time.Now().After(deadline) {
			t.Fatal("encoder goroutines outlived the canceled job")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// encodersRunning reports whether any goroutine runs a hub sink encoder.
func encodersRunning() bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), "(*hubSink).encoder")
		}
		buf = make([]byte, 2*len(buf))
	}
}
