package core

import (
	"os"
	"path/filepath"
	"testing"

	"easypap/internal/img2d"
	"easypap/internal/trace"
)

// testMPIKernelOnce registers an MPI-capable test kernel: each rank fills
// its band with a rank-specific shade, tile by tile, with instrumentation.
var testMPIKernelOnce = func() bool {
	Register(&Kernel{
		Name:        "testband",
		Description: "MPI band-fill test kernel",
		Init: func(ctx *Ctx) error {
			return nil
		},
		Refresh: func(ctx *Ctx) {
			// Gather bands at the master so the displayed image is
			// complete, mirroring real MPI kernels.
			if ctx.Comm == nil {
				return
			}
			band, pix := ctx.Band, ctx.Cur().Pixels()
			var full []uint32
			if ctx.IsMaster() {
				full = pix
			}
			_ = ctx.Comm.GatherBands(0, band, full, func(dst []uint32) {
				copy(dst, pix[band.Lo*ctx.Dim():band.Hi*ctx.Dim()])
			})
		},
		Variants: map[string]ComputeFunc{
			"seq": func(ctx *Ctx, nbIter int) int {
				return ctx.ForIterations(nbIter, func(int) bool {
					ctx.Cur().Fill(img2d.RGB(1, 2, 3))
					return true
				})
			},
			"mpi": func(ctx *Ctx, nbIter int) int {
				band := ctx.Band
				shade := img2d.RGB(uint8(10+ctx.Rank()*50), 0, 0)
				return ctx.ForIterations(nbIter, func(int) bool {
					rows := band.Rows()
					ctx.Pool.ParallelFor(rows, ctx.Cfg.Schedule, func(r, worker int) {
						y := band.Lo + r
						ctx.StartTile(worker)
						row := ctx.Cur().Row(y)
						for x := range row {
							row[x] = shade
						}
						ctx.AddWork(worker, int64(len(row)))
						ctx.EndTile(0, y, ctx.Dim(), 1, worker)
					})
					return true
				})
			},
		},
		DefaultVariant: "seq",
	})
	return true
}()

func TestMPIRunBasics(t *testing.T) {
	_ = testMPIKernelOnce
	out, err := Run(Config{Kernel: "testband", Variant: "mpi", Dim: 64,
		TileW: 16, TileH: 16, Iterations: 2, NoDisplay: true,
		Threads: 2, MPIRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 2 {
		t.Errorf("iterations = %d", out.Iterations)
	}
	// Master's final image carries both ranks' shades after Refresh.
	top := out.Final.Get(0, 0)
	bottom := out.Final.Get(63, 0)
	if img2d.R(top) != 10 || img2d.R(bottom) != 60 {
		t.Errorf("band shades = %d / %d, want 10 / 60", img2d.R(top), img2d.R(bottom))
	}
}

func TestMPIVariantDefaultsToTwoRanks(t *testing.T) {
	cfg, err := Config{Kernel: "testband", Variant: "mpi"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MPIRanks != 2 {
		t.Errorf("MPIRanks = %d, want the easypap default of 2", cfg.MPIRanks)
	}
}

func TestMPIRunCollectsPerRankMonitors(t *testing.T) {
	out, err := Run(Config{Kernel: "testband", Variant: "mpi", Dim: 64,
		TileW: 16, TileH: 16, Iterations: 3, NoDisplay: true,
		Threads: 2, MPIRanks: 2, Monitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Monitors) != 2 {
		t.Fatalf("monitors = %d, want one per rank", len(out.Monitors))
	}
	for rank, mon := range out.Monitors {
		if mon == nil {
			t.Fatalf("rank %d monitor missing", rank)
		}
		iters := mon.Iterations()
		if len(iters) != 3 {
			t.Errorf("rank %d monitored %d iterations", rank, len(iters))
		}
		// Each rank computed 32 row-tiles per iteration (64 rows / 2).
		if got := len(iters[0].Tiles); got != 32 {
			t.Errorf("rank %d recorded %d tiles, want 32", rank, got)
		}
		for _, tile := range iters[0].Tiles {
			if int(tile.Rank) != rank {
				t.Fatalf("tile labeled rank %d on rank %d's monitor", tile.Rank, rank)
			}
		}
	}
}

func TestMPIRunMergesTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mpi.evt")
	out, err := Run(Config{Kernel: "testband", Variant: "mpi", Dim: 64,
		TileW: 16, TileH: 16, Iterations: 2, NoDisplay: true,
		Threads: 2, MPIRanks: 2, TracePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no merged trace")
	}
	// 64 rows x 2 iterations across both ranks.
	if len(out.Trace.Events) != 128 {
		t.Errorf("merged trace has %d events, want 128", len(out.Trace.Events))
	}
	ranksSeen := map[int16]bool{}
	for _, e := range out.Trace.Events {
		ranksSeen[e.Rank] = true
	}
	if !ranksSeen[0] || !ranksSeen[1] {
		t.Errorf("merged trace ranks: %v", ranksSeen)
	}
	if out.Trace.Meta.Ranks != 2 {
		t.Errorf("merged meta ranks = %d", out.Trace.Meta.Ranks)
	}
	// Work counters survive the merge.
	if ws := trace.Work(out.Trace.Events); ws.TotalWork != 128*64 {
		t.Errorf("merged work = %d, want %d", ws.TotalWork, 128*64)
	}
}

func TestMPIDebugModeWritesPerRankWindows(t *testing.T) {
	dir := t.TempDir()
	_, err := Run(Config{Kernel: "testband", Variant: "mpi", Dim: 64,
		TileW: 16, TileH: 16, Iterations: 2, OutputDir: dir,
		Threads: 2, MPIRanks: 2, Monitoring: true, Debug: "M"})
	if err != nil {
		t.Fatal(err)
	}
	// Master writes the main window; with --debug M every rank writes its
	// own monitoring windows (the Fig. 13 setup).
	for _, f := range []string{
		"main_0001.png",
		"tiling-rank0_0001.png", "activity-rank0_0001.png",
		"tiling-rank1_0001.png", "activity-rank1_0001.png",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing window frame %s", f)
		}
	}
}

func TestMPIWithoutDebugOnlyMasterWindows(t *testing.T) {
	dir := t.TempDir()
	_, err := Run(Config{Kernel: "testband", Variant: "mpi", Dim: 64,
		TileW: 16, TileH: 16, Iterations: 1, OutputDir: dir,
		Threads: 2, MPIRanks: 2, Monitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tiling_0001.png")); err != nil {
		t.Error("master tiling window missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "tiling-rank1_0001.png")); err == nil {
		t.Error("non-master window written without --debug M")
	}
}

func TestCtxInstrumentationHelpers(t *testing.T) {
	// StartTask, AddWork and EndTask record a task span with its work
	// units beside a plain tile. The recording serves both instruments,
	// but each stays behind its own option: a trace-only run returns and
	// draws no monitor windows, and a monitor-only run writes no trace.
	Register(&Kernel{
		Name: "testctx",
		Init: func(ctx *Ctx) error { return nil },
		Variants: map[string]ComputeFunc{
			"seq": func(ctx *Ctx, nbIter int) int {
				return ctx.ForIterations(nbIter, func(int) bool {
					ctx.StartTask(0)
					ctx.AddWork(0, 7)
					ctx.EndTask(0, 0, 8, 8, 0)
					ctx.StartTile(0)
					ctx.EndTile(8, 0, 8, 8, 0)
					return true
				})
			},
		},
	})
	dir := t.TempDir()
	path := filepath.Join(dir, "t.evt")
	out, err := Run(Config{Kernel: "testctx", Dim: 64, TileW: 16, TileH: 16,
		Iterations: 1, OutputDir: dir, TracePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace.Events) != 2 {
		t.Fatalf("events = %d, want task + tile", len(out.Trace.Events))
	}
	kinds := map[trace.EventKind]int64{}
	for _, e := range out.Trace.Events {
		kinds[e.Kind] += e.Work + 1
	}
	if kinds[trace.KindTask] != 8 || kinds[trace.KindTile] != 1 {
		t.Errorf("kind -> work+1 = %v, want a task with 7 units and a tile with none", kinds)
	}
	if out.Monitors != nil {
		t.Error("trace-only run returned monitors")
	}
	if _, err := os.Stat(filepath.Join(dir, "tiling_0001.png")); err == nil {
		t.Error("trace-only run drew a tiling window")
	}

	out, err = Run(Config{Kernel: "testctx", Dim: 64, TileW: 16, TileH: 16,
		Iterations: 1, NoDisplay: true, Monitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace != nil {
		t.Error("monitor-only run returned a trace")
	}
	if tiles := out.Monitors[0].Iterations()[0].Tiles; len(tiles) != 2 || tiles[0].Work != 7 {
		t.Errorf("monitor records = %+v, want the task (7 units) and the tile", tiles)
	}
}
