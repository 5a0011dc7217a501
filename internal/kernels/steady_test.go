package kernels

// The run loop stops at convergence in every mode: performance runs,
// checkpointed runs (which compute in chunks ending on snapshot
// boundaries) and frames runs (one compute call per iteration) all
// report the first steady iteration, counted once.

import (
	"testing"

	"easypap/internal/core"
	"easypap/internal/img2d"
)

// frameCounter is a frame sink that records the main window's iterations.
type frameCounter struct{ iters []int }

func (f *frameCounter) Frame(window string, iter int, _ *img2d.Image) error {
	if window == "main" {
		f.iters = append(f.iters, iter)
	}
	return nil
}

func (f *frameCounter) Close() error { return nil }

// TestEmptyLifeStopsInEveryMode: an empty board is steady at iteration 1
// of 10. Performance mode, SnapshotEvery 1 and a frames run must all
// report 1 iteration; the frames run streams one frame, and the steady
// iteration is not snapshotted.
func TestEmptyLifeStopsInEveryMode(t *testing.T) {
	for _, variant := range []string{"seq", "omp_tiled", "lazy", "bitpack"} {
		cfg := core.Config{Kernel: "life", Variant: variant, Dim: 32, TileW: 8, TileH: 8,
			Iterations: 10, Arg: "empty", Threads: 2, NoDisplay: true}
		perf := runWith(t, cfg, core.RunOptions{})
		ck, snaps := snapshotRun(t, cfg, 1)
		sink := &frameCounter{}
		frames := runWith(t, cfg, core.RunOptions{Sink: sink})
		for mode, out := range map[string]*core.RunOutput{
			"performance": perf, "SnapshotEvery 1": ck, "frames": frames,
		} {
			if out.Iterations != 1 {
				t.Errorf("life/%s %s: %d iterations, want 1", variant, mode, out.Iterations)
			}
		}
		if len(sink.iters) != 1 || sink.iters[0] != 1 {
			t.Errorf("life/%s frames run streamed frames %v, want [1]", variant, sink.iters)
		}
		if len(snaps) != 0 {
			t.Errorf("life/%s snapshotted the steady iteration (%d snapshots)", variant, len(snaps))
		}
	}
}

// TestSteadyIterationOnSnapshotCadence: a board whose first steady
// iteration k is itself the snapshot cadence must stop at k, exactly like
// the straight run, instead of computing a second steady iteration.
func TestSteadyIterationOnSnapshotCadence(t *testing.T) {
	cfg := core.Config{Kernel: "fire", Variant: "lazy", Arg: "sparse", Seed: 3, Dim: 64,
		TileW: 8, TileH: 8, Iterations: 100, Threads: 2, NoDisplay: true}
	ref := runWith(t, cfg, core.RunOptions{})
	k := ref.Iterations
	if k < 2 || k >= cfg.Iterations {
		t.Fatalf("fixture: sparse forest converged after %d of %d iterations", k, cfg.Iterations)
	}
	ck, snaps := snapshotRun(t, cfg, k)
	if ck.Iterations != k || ck.Result.Checksum != ref.Result.Checksum {
		t.Errorf("SnapshotEvery %d: %d iterations / %.12s, straight run %d / %.12s",
			k, ck.Iterations, ck.Result.Checksum, k, ref.Result.Checksum)
	}
	if len(snaps) != 0 {
		t.Errorf("SnapshotEvery %d snapshotted the steady iteration", k)
	}
	sink := &frameCounter{}
	if frames := runWith(t, cfg, core.RunOptions{Sink: sink, SnapshotEvery: k,
		OnSnapshot: func(int, []byte) {}}); frames.Iterations != k || len(sink.iters) != k {
		t.Errorf("frames run: %d iterations, %d frames, want %d of each",
			frames.Iterations, len(sink.iters), k)
	}
}
