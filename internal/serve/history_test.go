package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"easypap/internal/core"
)

// TestFinishedJobKeepsResultNotImage: a finished job costs the history
// its result, not its final image. Under the default history (4,096
// jobs) the live heap after a collection grows by well under 32 KiB per
// finished life 256² job; a job that kept its 256 KiB final image would
// grow it by more than that image.
func TestFinishedJobKeepsResultNotImage(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run := func(seed int64) {
		t.Helper()
		st, err := m.Submit(core.Config{Kernel: "life", Variant: "seq", Dim: 256, TileW: 32, TileH: 32,
			Iterations: 2, Threads: 1, Seed: seed}, false)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = m.Wait(ctx, st.ID); err != nil || st.State != JobDone || st.Result.Checksum == "" {
			t.Fatalf("job did not finish with a checksum: %+v (%v)", st, err)
		}
	}
	// liveHeap collects twice: the second collection also frees the
	// buffers the free lists held across the first.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run(1) // warm-up: the pool lease, the caches' and the history's first slots
	before := liveHeap()
	const jobs = 40
	for i := 0; i < jobs; i++ {
		run(int64(100 + i))
	}
	perJob := (liveHeap() - before) / jobs
	if perJob >= 32<<10 {
		t.Fatalf("live heap grew %d B per finished job, want < %d", perJob, 32<<10)
	}
	t.Logf("live heap grew %d B per finished job", perJob)
}
