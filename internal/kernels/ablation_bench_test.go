package kernels

// Kernel-level ablation benchmarks: tile-size sweep for mandel (the
// paper's grain axis), instrumentation overhead (monitoring/tracing off vs
// on), and lazy-evaluation gain on sparse Game of Life boards.

import (
	"fmt"
	"path/filepath"
	"testing"

	"easypap/internal/core"
	"easypap/internal/sched"
)

func benchRun(b *testing.B, cfg core.Config) {
	b.Helper()
	cfg.NoDisplay = true
	if _, err := core.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationMandelTileSize sweeps the grain (square tile size): too
// small pays scheduling overhead, too large loses balance — the trade-off
// behind the paper's Fig. 6 grain panels.
func BenchmarkAblationMandelTileSize(b *testing.B) {
	for _, tile := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("tile=%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRun(b, core.Config{
					Kernel: "mandel", Variant: "omp_tiled", Dim: 512,
					TileW: tile, TileH: tile, Iterations: 1,
					Schedule: sched.DynamicPolicy(2),
				})
			}
		})
	}
}

// BenchmarkAblationInstrumentation measures the cost of monitoring and
// tracing, apart and together, relative to a bare run — the overhead
// EASYPAP accepts to give students feedback.
func BenchmarkAblationInstrumentation(b *testing.B) {
	base := core.Config{
		Kernel: "mandel", Variant: "omp_tiled", Dim: 512,
		TileW: 16, TileH: 16, Iterations: 1,
		Schedule: sched.DynamicPolicy(2),
	}
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRun(b, base)
		}
	})
	b.Run("monitoring", func(b *testing.B) {
		cfg := base
		cfg.Monitoring = true
		for i := 0; i < b.N; i++ {
			benchRun(b, cfg)
		}
	})
	b.Run("tracing", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.TracePath = filepath.Join(dir, fmt.Sprintf("t%d.evt", i))
			benchRun(b, cfg)
		}
	})
	b.Run("both", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Monitoring = true
			cfg.TracePath = filepath.Join(dir, fmt.Sprintf("t%d.evt", i))
			benchRun(b, cfg)
		}
	})
}

// BenchmarkAblationLifeLazy quantifies the lazy-evaluation gain on the
// sparse diagonal dataset vs the dense full recomputation, and where the
// branch-free bit-packed kernel lands against both.
func BenchmarkAblationLifeLazy(b *testing.B) {
	for _, variant := range []string{"omp_tiled", "lazy", "bitpack"} {
		b.Run(variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRun(b, core.Config{
					Kernel: "life", Variant: variant, Dim: 512,
					TileW: 8, TileH: 8, Iterations: 10, Arg: "diag",
					Schedule: sched.DynamicPolicy(1),
				})
			}
		})
	}
}

// BenchmarkLazyEngineKernels measures the tilegrid engine's eager-vs-lazy
// gain for every kernel pair sharing it: life on the sparse diag dataset,
// the synchronous sandpile mid-avalanche, and the fire front sweeping a
// full forest. These are EXPERIMENTS.md's lazy-speedup numbers.
func BenchmarkLazyEngineKernels(b *testing.B) {
	cases := []struct {
		name  string
		cfg   core.Config
		eager string
		lazy  string
	}{
		{"life-diag-512", core.Config{Kernel: "life", Dim: 512, TileW: 8, TileH: 8,
			Iterations: 10, Arg: "diag", Schedule: sched.DynamicPolicy(1)}, "omp_tiled", "lazy"},
		{"sandpile-256", core.Config{Kernel: "sandpile", Dim: 256, TileW: 16, TileH: 16,
			Iterations: 50, Schedule: sched.DynamicPolicy(1)}, "omp_tiled", "lazy_omp"},
		{"fire-full-512", core.Config{Kernel: "fire", Dim: 512, TileW: 16, TileH: 16,
			Iterations: 60, Arg: "full", Schedule: sched.DynamicPolicy(1)}, "omp_tiled", "lazy"},
	}
	for _, tc := range cases {
		for _, variant := range []string{tc.eager, tc.lazy} {
			b.Run(tc.name+"/"+variant, func(b *testing.B) {
				cfg := tc.cfg
				cfg.Variant = variant
				for i := 0; i < b.N; i++ {
					benchRun(b, cfg)
				}
			})
		}
	}
}

// BenchmarkAblationBlurTileShape compares square and row-shaped tiles for
// the stencil: wide tiles stream rows (cache friendly), squares maximize
// reuse across iterations.
func BenchmarkAblationBlurTileShape(b *testing.B) {
	shapes := []struct{ w, h int }{
		{16, 16}, {32, 32}, {64, 64}, {512, 8}, {8, 512},
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%d", s.w, s.h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRun(b, core.Config{
					Kernel: "blur", Variant: "omp_tiled_opt", Dim: 512,
					TileW: s.w, TileH: s.h, Iterations: 2,
					Schedule: sched.NonmonotonicPolicy,
				})
			}
		})
	}
}
