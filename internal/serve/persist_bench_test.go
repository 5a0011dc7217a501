package serve_test

// The persistence latency ladder: memory hit < disk hit < recompute.
// EXPERIMENTS.md's persistence row records these numbers — the disk
// tier only earns its place if a warm-disk restart really is orders of
// magnitude cheaper than recomputing (and barely worse than RAM).

import (
	"context"
	"testing"

	"easypap/internal/core"
	_ "easypap/internal/kernels"
	"easypap/internal/serve"
	"easypap/internal/serve/store"
)

func persistCfg(dim int) core.Config {
	return core.Config{
		Kernel: "mandel", Variant: "seq", Dim: dim, TileW: 16,
		Iterations: 1, Threads: 1,
	}
}

// BenchmarkPersistMemoryHit: identical resubmission served by the
// in-memory LRU (the disk tier is present but never consulted).
func BenchmarkPersistMemoryHit(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mgr := serve.NewManager(serve.Options{Workers: 1, Store: s})
	defer mgr.Close()
	cfg := persistCfg(64)
	st, err := mgr.Submit(cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Wait(context.Background(), st.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := mgr.Submit(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached || st.DiskHit {
			b.Fatalf("expected a memory hit: %+v", st)
		}
	}
}

// BenchmarkPersistDiskHit: a 1-entry memory tier with two configs
// alternating, so every submission misses RAM and is served by the disk
// tier (read + CRC verify + JSON decode + promotion) — the latency a
// freshly restarted daemon pays per warm request.
func BenchmarkPersistDiskHit(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mgr := serve.NewManager(serve.Options{Workers: 1, CacheCapacity: 1, Store: s})
	defer mgr.Close()
	ctx := context.Background()
	cfgs := []core.Config{persistCfg(64), persistCfg(128)}
	for _, cfg := range cfgs {
		st, err := mgr.Submit(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Wait(ctx, st.ID); err != nil {
			b.Fatal(err)
		}
	}
	// Both entries must be on disk before measuring.
	for mgr.Stats().Spills < 2 {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := mgr.Submit(cfgs[i%2], false)
		if err != nil {
			b.Fatal(err)
		}
		if !st.DiskHit {
			b.Fatalf("expected a disk hit: %+v", st)
		}
	}
}

// BenchmarkPersistRecompute: the cold path both tiers save — every
// submission is a distinct config (seed varies) and runs the kernel.
func BenchmarkPersistRecompute(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 1 << 16, Store: s})
	defer mgr.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := persistCfg(64)
		cfg.Seed = int64(i + 1)
		st, err := mgr.Submit(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if st, err = mgr.Wait(ctx, st.ID); err != nil || st.State != serve.JobDone {
			b.Fatalf("job ended %v: %v", st, err)
		}
	}
}
