package serve_test

// Service-level coverage of the delta frame stream: format negotiation
// over real HTTP, pixel-exact equivalence between the full and delta
// encodings of the same job, and the slow-subscriber chaos scenario —
// a stalled viewer must never stall the run loop or other viewers.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
)

// TestDeltaStreamEquivalence reassembles the delta stream of the lazy
// (frontier-reporting) kernels and checks it is pixel-identical, frame
// by frame, to the golden-pinned full stream of the same job.
func TestDeltaStreamEquivalence(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	cases := []struct {
		name string
		cfg  core.Config
	}{
		// 40 iterations: past the 32-frame keyframe cadence, so the delta
		// stream holds keyframes AND patches, and well under the hub ring
		// bound, so late subscribers replay the entire stream.
		{"life diag", core.Config{Kernel: "life", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 40, Threads: 2, Arg: "diag"}},
		{"life random seed1", core.Config{Kernel: "life", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 40, Threads: 2, Seed: 1}},
		{"life random seed42", core.Config{Kernel: "life", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 40, Threads: 2, Seed: 42}},
		{"fire full", core.Config{Kernel: "fire", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 40, Threads: 2, Arg: "full"}},
		{"fire forest seed7", core.Config{Kernel: "fire", Variant: "lazy", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 40, Threads: 2, Seed: 7}},
		{"sandpile lazy_omp", core.Config{Kernel: "sandpile", Variant: "lazy_omp", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 40, Threads: 2}},
		// asandpile topples in place and adds grains into the rim of
		// tiles it did not dispatch: with 4x4 tiles those rims change
		// pixels from iteration 76 on, which the dispatch frontier alone
		// would leave out of the delta.
		{"asandpile lazy_omp 4x4", core.Config{Kernel: "asandpile", Variant: "lazy_omp", Dim: 64,
			TileW: 4, TileH: 4, Iterations: 120, Threads: 2}},
		{"asandpile lazy_omp 8x8", core.Config{Kernel: "asandpile", Variant: "lazy_omp", Dim: 64,
			TileW: 8, TileH: 8, Iterations: 120, Threads: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := cl.Submit(ctx, tc.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Wait(ctx, st.ID); err != nil {
				t.Fatal(err)
			}

			// Both subscribers attach after the job finished: each replays
			// the full retained ring, so the comparison is deterministic.
			type frame struct {
				iter int
				img  *img2d.Image
			}
			var full []frame
			if err := cl.Frames(ctx, st.ID, func(f *gfx.Record) bool {
				im, err := img2d.DecodePNG(bytes.NewReader(f.Payload))
				if err != nil {
					t.Errorf("full frame %s/%d: %v", f.Window, f.Iter, err)
					return false
				}
				full = append(full, frame{f.Iter, im})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			var delta []frame
			if err := cl.FramesDelta(ctx, st.ID, func(window string, iter int, img *img2d.Image) bool {
				delta = append(delta, frame{iter, img.Clone()})
				return true
			}); err != nil {
				t.Fatal(err)
			}

			if len(full) != tc.cfg.Iterations {
				t.Fatalf("full stream has %d frames, want %d", len(full), tc.cfg.Iterations)
			}
			if len(delta) != len(full) {
				t.Fatalf("delta stream has %d frames, full has %d", len(delta), len(full))
			}
			for i := range full {
				if delta[i].iter != full[i].iter {
					t.Fatalf("frame %d: delta iter %d vs full iter %d", i, delta[i].iter, full[i].iter)
				}
				if !delta[i].img.Equal(full[i].img) {
					t.Errorf("iter %d: reassembled delta frame differs from full frame (%d pixels)",
						full[i].iter, delta[i].img.DiffCount(full[i].img))
				}
			}
		})
	}
}

// TestDeltaStreamShrinksBytes pins the headline win: for a sparse
// steady-state kernel, a steady-state frame of the delta stream costs a
// small fraction of its full-frame encoding — ≥ 5x smaller — and the
// whole delta stream (keyframe cadence included) is substantially
// smaller than the full stream.
func TestDeltaStreamShrinksBytes(t *testing.T) {
	mgr, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	// Sparse gliders on a big board: a handful of dirty tiles per iteration
	// against a 256x256 full frame.
	st, err := cl.Submit(ctx, core.Config{
		Kernel: "life", Variant: "lazy", Dim: 256, TileW: 16, TileH: 16,
		Iterations: 64, Threads: 2, Arg: "diag",
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	full, steady := streamRecordBytes(t, cl, st.ID)
	if full.n == 0 || steady.n == 0 {
		t.Fatalf("no records measured: %d full, %d steady", full.n, steady.n)
	}
	ratio := full.mean() / steady.mean()
	t.Logf("full frame %.0fB avg, steady-state delta %.0fB avg: %.1fx", full.mean(), steady.mean(), ratio)
	if ratio < 5 {
		t.Errorf("steady-state delta frame only %.1fx smaller than full, want >= 5x", ratio)
	}

	stats := mgr.Stats()
	if stats.FrameFullBytes == 0 || stats.FrameDeltaBytes == 0 {
		t.Fatalf("byte counters not populated: full=%d delta=%d",
			stats.FrameFullBytes, stats.FrameDeltaBytes)
	}
	if agg := float64(stats.FrameFullBytes) / float64(stats.FrameDeltaBytes); agg < 3 {
		t.Errorf("whole delta stream only %.1fx smaller than full, want >= 3x with keyframes included", agg)
	}
}

type byteTally struct {
	n     int
	total int
}

func (b *byteTally) add(sz int)   { b.n++; b.total += sz }
func (b byteTally) mean() float64 { return float64(b.total) / float64(b.n) }

// streamRecordBytes reads a job's full stream and delta stream and
// tallies wire-record sizes: all full-stream records, and the delta
// stream's steady-state (non-keyframe) records.
func streamRecordBytes(t *testing.T, cl *client.Client, id string) (full, steady byteTally) {
	t.Helper()
	ctx := context.Background()
	read := func(path string) []*gfx.Record {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		var recs []*gfx.Record
		for {
			rec, err := gfx.ReadRecord(br)
			if err == io.EOF {
				return recs
			}
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
	}
	for _, rec := range read("/v1/jobs/" + id + "/frames") {
		full.add(len(rec.Encode()))
	}
	for _, rec := range read("/v1/jobs/" + id + "/frames?format=delta") {
		if rec.Kind == gfx.RecordDelta {
			steady.add(len(rec.Encode()))
		}
	}
	return full, steady
}

// TestSlowSubscriberNeverStallsJob is the chaos scenario: a subscriber
// that attaches and then never reads while the job produces more frames
// than the hub ring retains. The job must finish unimpeded, a healthy
// concurrent subscriber must see the stream, and when the stalled reader
// finally drains it lands on a keyframe (counted as a drop) instead of
// blocking anything.
func TestSlowSubscriberNeverStallsJob(t *testing.T) {
	mgr, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	// More iterations than the default 1024-record ring, so the stalled
	// cursor is guaranteed to be lapped.
	const iters = 1100
	st, err := cl.Submit(ctx, core.Config{
		Kernel: "life", Variant: "lazy", Dim: 64, TileW: 8, TileH: 8,
		Iterations: iters, Threads: 2, Arg: "diag",
	}, true)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled subscriber: attach immediately, read nothing until the
	// job is done.
	stalled, err := mgr.FrameStream(ctx, st.ID, gfx.FormatDelta)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// The healthy subscriber drains over HTTP concurrently with the run.
	healthyDone := make(chan error, 1)
	var healthyFrames int
	go func() {
		healthyDone <- cl.FramesDelta(ctx, st.ID, func(string, int, *img2d.Image) bool {
			healthyFrames++
			return true
		})
	}()

	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	final, err := cl.Wait(waitCtx, st.ID)
	if err != nil {
		t.Fatalf("job did not finish with a stalled subscriber attached: %v", err)
	}
	if final.State != serve.JobDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy subscriber: %v", err)
	}
	if healthyFrames == 0 {
		t.Fatal("healthy subscriber starved by the stalled one")
	}

	// Now drain the stalled reader: it must resync to a keyframe and reach
	// EOF, not replay the whole stream.
	body, err := io.ReadAll(stalled)
	if err != nil {
		t.Fatalf("stalled reader drain: %v", err)
	}
	if len(body) == 0 {
		t.Fatal("stalled reader got nothing after resync")
	}
	stats := mgr.Stats()
	if stats.FrameDroppedToKey == 0 {
		t.Error("no drop-to-keyframe recorded for a lapped subscriber")
	}
	if stats.FramePostCloseDrops != 0 {
		t.Errorf("unexpected post-close drops: %d", stats.FramePostCloseDrops)
	}
}

// TestFrameStreamFormatNegotiation checks the HTTP layer: default and
// explicit full requests get the EZFRAME content type, `?format=delta`
// and the Accept header get the delta type.
func TestFrameStreamFormatNegotiation(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	st, err := cl.Submit(ctx, core.Config{
		Kernel: "life", Variant: "lazy", Dim: 32, TileW: 8, TileH: 8,
		Iterations: 2, Threads: 1, Arg: "blinker",
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	get := func(path, accept string) (string, []byte) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), b
	}

	ct, body := get("/v1/jobs/"+st.ID+"/frames", "")
	if ct != serve.FramesContentType {
		t.Errorf("default stream content type %q", ct)
	}
	if !bytes.HasPrefix(body, []byte("EZFRAME ")) {
		t.Error("default stream does not start with EZFRAME")
	}
	ct, _ = get("/v1/jobs/"+st.ID+"/frames?format=delta", "")
	if ct != serve.FramesDeltaContentType {
		t.Errorf("?format=delta content type %q", ct)
	}
	ct, body = get("/v1/jobs/"+st.ID+"/frames", serve.FramesDeltaContentType)
	if ct != serve.FramesDeltaContentType {
		t.Errorf("Accept-negotiated content type %q", ct)
	}
	if !bytes.HasPrefix(body, []byte("EZFRAME ")) {
		t.Error("delta stream does not start with a keyframe")
	}
}
