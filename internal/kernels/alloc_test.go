package kernels

// What one computed run allocates. A run leases its image pair and its
// board from free lists and hands them back when it ends, except the
// image its output keeps as Final; an output handed back with Release
// returns that one too. A warm run of the same size therefore allocates
// less than one image: only its small per-run state (the Ctx, the tile
// grid and frontier, the worker team when none is leased).

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"easypap/internal/core"
)

// allocCase is one kernel family's 256² run.
type allocCase struct {
	name string
	cfg  core.Config
}

// allocCases is one case per kernel family at 256², single-process, plus
// the two stencils whose in-process mpi_omp runs gather bands.
func allocCases() []allocCase {
	c := func(kernel, variant string, iters, ranks int) core.Config {
		return core.Config{Kernel: kernel, Variant: variant, Dim: 256, TileW: 32, TileH: 32,
			Iterations: iters, Threads: 1, MPIRanks: ranks, Seed: 7, NoDisplay: true}
	}
	return []allocCase{
		{"life", c("life", "seq", 20, 0)},
		{"fire", c("fire", "seq", 20, 0)},
		{"sandpile", c("sandpile", "seq", 20, 0)},
		{"asandpile", c("asandpile", "seq", 20, 0)},
		{"mandel", c("mandel", "seq", 1, 0)},
		{"blur", c("blur", "seq", 5, 0)},
		{"life_mpi_omp", c("life", "mpi_omp", 20, 2)},
		{"fire_mpi_omp", c("fire", "mpi_omp", 20, 2)},
	}
}

// runReleased computes cfg and hands its output back, the way the daemon
// does once it has the checksum.
func runReleased(tb testing.TB, cfg core.Config) {
	out, err := core.RunWith(context.Background(), cfg, core.RunOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	out.Release()
}

// bytesPerRun is the mean heap bytes allocated by one of 5 runs after 2
// warm-ups. The collector is off while it measures: a collection would
// empty the free lists, as the runtime may do to any sync.Pool, and the
// figure would then depend on when one happened to fall.
func bytesPerRun(tb testing.TB, cfg core.Config) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runReleased(tb, cfg)
	runReleased(tb, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		runReleased(tb, cfg)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestRunAllocatesLessThanAnImage: a warm single-process 256² run of
// every kernel family allocates less than one 256² image (262,144 B),
// and a two-rank mpi_omp run less than 1 MB: a run that allocated its
// own image pair, boards or gather buffers would cross those lines.
func TestRunAllocatesLessThanAnImage(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build drops pooled buffers on purpose")
	}
	const image = 256 * 256 * 4
	for _, c := range allocCases() {
		limit := uint64(image)
		if c.cfg.MPIRanks > 1 {
			limit = 1 << 20
		}
		if got := bytesPerRun(t, c.cfg); got >= limit {
			t.Errorf("%s: %d B per warm run, want < %d", c.name, got, limit)
		} else {
			t.Logf("%s: %d B per warm run (limit %d)", c.name, got, limit)
		}
	}
}

// BenchmarkRunAllocs reports bytes and allocations per computed run, one
// case per kernel family at 256² (go test -bench RunAllocs -benchmem).
func BenchmarkRunAllocs(b *testing.B) {
	for _, c := range allocCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runReleased(b, c.cfg)
			}
		})
	}
}
