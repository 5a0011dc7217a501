package kernels

import (
	"context"
	"errors"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
)

// TestTeamIterationsMatchOmpTiled checks that mandel's team variant, which
// runs its iteration loop inside one parallel region, keeps the same
// iteration bookkeeping as omp_tiled, which runs under ForIterations: trace
// events carry their iteration, the monitor numbers iterations by their
// absolute index on the one-iteration-per-call display path, and a
// canceled run stops at an iteration boundary instead of finishing.
func TestTeamIterationsMatchOmpTiled(t *testing.T) {
	base := core.Config{Kernel: "mandel", Dim: 64, TileW: 16, TileH: 16, Iterations: 3, Threads: 2}
	variants := []string{"omp_tiled", "team"}

	t.Run("trace", func(t *testing.T) {
		var want map[int32]int
		for _, v := range variants {
			cfg := base
			cfg.Variant, cfg.NoDisplay = v, true
			cfg.TracePath = filepath.Join(t.TempDir(), v+".evt")
			out := runWith(t, cfg, core.RunOptions{})
			perIter := map[int32]int{}
			for _, e := range out.Trace.Events {
				perIter[e.Iter]++
			}
			if want == nil {
				want = perIter
				if len(want) != 3 || want[1] != 16 {
					t.Fatalf("%s: events per iteration %v, want 16 in each of 1-3", v, want)
				}
			}
			if !maps.Equal(perIter, want) {
				t.Errorf("%s: events per iteration %v, want %v", v, perIter, want)
			}
		}
	})

	t.Run("monitor", func(t *testing.T) {
		for _, v := range variants {
			cfg := base
			cfg.Variant, cfg.Monitoring = v, true
			out := runWith(t, cfg, core.RunOptions{Sink: gfx.Null{}})
			var iters []int
			for _, s := range out.Monitors[0].Iterations() {
				iters = append(iters, s.Iter)
			}
			if !slices.Equal(iters, []int{1, 2, 3}) {
				t.Errorf("%s: monitor iterations %v, want [1 2 3]", v, iters)
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		const iters = 60
		canceledAt := regexp.MustCompile(`canceled after (\d+) iterations`)
		for _, v := range variants {
			cfg := base
			cfg.Variant, cfg.Dim, cfg.Iterations, cfg.NoDisplay = v, 256, iters, true
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			_, err := core.RunContext(ctx, cfg)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: canceled run returned %v", v, err)
			}
			m := canceledAt.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("%s: canceled run returned %v", v, err)
			}
			if n, _ := strconv.Atoi(m[1]); n >= iters {
				t.Errorf("%s: canceled run computed %d of %d iterations", v, n, iters)
			}
		}
	})
}
