package kernels

// Checkpointing economics: what does snapshotting cost while a run is
// in flight, and what does resuming buy compared to recomputing the
// shared prefix? Recorded in EXPERIMENTS.md's checkpointing row. life is
// the subject: a stateful kernel whose codec serializes both board
// generations, so the snapshot is the full restartable state, not a
// derived image.

import (
	"context"
	"testing"

	"easypap/internal/core"
)

func benchCfg(iters int) core.Config {
	return core.Config{
		Kernel: "life", Variant: "seq", Dim: 256, TileW: 8, TileH: 8,
		Iterations: iters, Threads: 1, Seed: 7, NoDisplay: true,
	}
}

func mustRun(b *testing.B, cfg core.Config, opts core.RunOptions) *core.RunOutput {
	b.Helper()
	out, err := core.RunWith(context.Background(), cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkCkptBaseline100 is the comparator for the snapshot-overhead
// pair: 100 iterations, no checkpointing.
func BenchmarkCkptBaseline100(b *testing.B) {
	cfg := benchCfg(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, cfg, core.RunOptions{})
	}
}

// BenchmarkCkptSnapshotEvery10 pays 10 state serializations across the
// same 100 iterations — the in-run cost of -snapshot-every 10 minus
// the (write-behind, off this path) disk write.
func BenchmarkCkptSnapshotEvery10(b *testing.B) {
	cfg := benchCfg(100)
	var bytesOut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, cfg, core.RunOptions{
			SnapshotEvery: 10,
			OnSnapshot:    func(_ int, state []byte) { bytesOut += int64(len(state)) },
		})
	}
	b.ReportMetric(float64(bytesOut)/float64(b.N), "snapbytes/op")
}

// BenchmarkCkptColdFull1000 recomputes the whole 1000-iteration run —
// what every deepening step of a sweep costs without checkpointing.
func BenchmarkCkptColdFull1000(b *testing.B) {
	cfg := benchCfg(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, cfg, core.RunOptions{})
	}
}

// BenchmarkCkptResumeTail100 answers the same 1000-iteration request
// from a depth-900 snapshot: restore state, compute the 100-iteration
// suffix. The spread to BenchmarkCkptColdFull1000 is what the deepest
// prefix is worth.
func BenchmarkCkptResumeTail100(b *testing.B) {
	cfg := benchCfg(1000)
	var state []byte
	mustRun(b, cfg, core.RunOptions{
		SnapshotEvery: 900,
		OnSnapshot: func(iter int, s []byte) {
			if iter == 900 {
				state = append([]byte(nil), s...)
			}
		},
	})
	if state == nil {
		b.Fatal("no snapshot at iteration 900")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := mustRun(b, cfg, core.RunOptions{
			Resume: &core.ResumeState{Iter: 900, State: state},
		})
		if out.Result.ResumedFrom != 900 {
			b.Fatalf("resume did not take: %+v", out.Result)
		}
	}
}
