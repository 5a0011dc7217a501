package serve_test

// Serving throughput: warm-pool leasing vs per-run pool construction, and
// the cache-hit fast path. EXPERIMENTS.md's serving-throughput row
// records these numbers.

import (
	"context"
	"testing"

	"easypap/internal/core"
	_ "easypap/internal/kernels"
	"easypap/internal/serve"
)

// benchServe submits one job per iteration and waits for it. Seeds vary
// per op so the result cache never short-circuits the measured path;
// threads are 8 so pool construction (7 goroutine spawns + first
// dispatch) is visible in the cold case.
func benchServe(b *testing.B, disableWarm bool, mkCfg func(i int) core.Config) {
	mgr := serve.NewManager(serve.Options{
		Workers: 1, QueueDepth: 1 << 16, CacheCapacity: 1,
		DisableWarmPools: disableWarm,
	})
	defer mgr.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := mgr.Submit(mkCfg(i), false)
		if err != nil {
			b.Fatal(err)
		}
		if st, err = mgr.Wait(ctx, st.ID); err != nil || st.State != serve.JobDone {
			b.Fatalf("job ended %v: %v", st, err)
		}
	}
}

// A realistic small job: ~1.4ms of mandel compute.
func mandelJob(i int) core.Config {
	return core.Config{
		Kernel: "mandel", Variant: "omp_tiled", Dim: 64, TileW: 16,
		Iterations: 1, Threads: 8, Seed: int64(i + 1),
	}
}

// A near-free job: one scrollup iteration on a 32x32 image, so the
// measured time is almost entirely serving overhead (queue hop + pool
// lease/build + run-loop setup).
func tinyJob(i int) core.Config {
	return core.Config{
		Kernel: "scrollup", Variant: "omp_tiled", Dim: 32, TileW: 16,
		Iterations: 1, Threads: 8, Seed: int64(i + 1),
	}
}

func BenchmarkServeJobWarmPool(b *testing.B) { benchServe(b, false, mandelJob) }

func BenchmarkServeJobColdPool(b *testing.B) { benchServe(b, true, mandelJob) }

func BenchmarkServeOverheadWarmPool(b *testing.B) { benchServe(b, false, tinyJob) }

func BenchmarkServeOverheadColdPool(b *testing.B) { benchServe(b, true, tinyJob) }

// BenchmarkServeCacheHit measures the cached serving fast path: identical
// resubmissions never reach a runner.
func BenchmarkServeCacheHit(b *testing.B) {
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 64})
	defer mgr.Close()
	ctx := context.Background()
	cfg := core.Config{
		Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 16,
		Iterations: 1, Threads: 1,
	}
	st, err := mgr.Submit(cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Wait(ctx, st.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := mgr.Submit(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}
