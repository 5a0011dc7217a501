package serve_test

// End-to-end coverage of the compute service: the full lifecycle over
// real HTTP (submit → queue → run → result), concurrent submissions under
// admission control, cache hits on identical resubmission, cancellation
// latency, warm-pool reuse and the live frame stream.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	_ "easypap/internal/kernels" // register the predefined kernels
	"easypap/internal/serve"
	"easypap/internal/serve/client"
)

func newTestService(t *testing.T, opts serve.Options) (*serve.Manager, *client.Client) {
	t.Helper()
	mgr := serve.NewManager(opts)
	ts := httptest.NewServer(serve.NewHandler(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return mgr, client.New(ts.URL)
}

// mandelCfg is a small fast mandel job; iters varies it so each config
// hashes distinctly.
func mandelCfg(iters int) core.Config {
	return core.Config{
		Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 16,
		Iterations: iters, Threads: 1,
	}
}

// TestServiceLifecycleE2E drives the acceptance scenario: 8 concurrent
// submissions complete under admission control, an identical resubmission
// is served from cache without recompute, and DELETE on a long mandel job
// takes effect within 100ms with the leased pool reusable afterwards.
func TestServiceLifecycleE2E(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 2, QueueDepth: 32})
	ctx := context.Background()

	// 8 concurrent distinct submissions.
	const n = 8
	var wg sync.WaitGroup
	results := make([]*serve.JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := cl.Submit(ctx, mandelCfg(i+1), false)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = cl.Wait(ctx, st.ID)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if results[i].State != serve.JobDone {
			t.Fatalf("job %d ended %s: %s", i, results[i].State, results[i].Error)
		}
		if results[i].Result == nil || results[i].Result.Iterations != i+1 {
			t.Fatalf("job %d result %+v, want %d iterations", i, results[i].Result, i+1)
		}
		if results[i].Cached {
			t.Fatalf("job %d reported cached on first submission", i)
		}
	}

	statsBefore, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsBefore.CacheHits != 0 {
		t.Fatalf("cache hits before resubmission: %d", statsBefore.CacheHits)
	}

	// Identical resubmission: served from cache, no recompute.
	st, err := cl.Submit(ctx, mandelCfg(3), false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() || !st.Cached {
		t.Fatalf("resubmission not served from cache: state=%s cached=%v", st.State, st.Cached)
	}
	if st.Result == nil || st.Result.Iterations != 3 {
		t.Fatalf("cached result %+v", st.Result)
	}
	statsAfter, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsAfter.CacheHits != statsBefore.CacheHits+1 {
		t.Errorf("cache hit counter did not increment: %d -> %d", statsBefore.CacheHits, statsAfter.CacheHits)
	}
	if statsAfter.Completed != statsBefore.Completed+1 {
		t.Errorf("completed count %d -> %d", statsBefore.Completed, statsAfter.Completed)
	}
	if ks, ok := statsAfter.Kernels["mandel"]; !ok || ks.Jobs != n {
		// The cached resubmission must NOT appear in compute throughput.
		t.Errorf("mandel kernel stats = %+v, want %d computed jobs", ks, n)
	}

	// Cancellation: a long mandel job is canceled within 100ms.
	long, err := cl.Submit(ctx, mandelCfg(1_000_000), false)
	if err != nil {
		t.Fatal(err)
	}
	deadlineCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for { // wait until it actually runs
		cur, err := cl.Job(deadlineCtx, long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == serve.JobRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	canceledAt := time.Now()
	if _, err := cl.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(deadlineCtx, long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(canceledAt); lat > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", lat)
	}
	if final.State != serve.JobCanceled {
		t.Errorf("canceled job ended %s", final.State)
	}

	// The leased pool survived the cancel: the next job reuses it warm.
	after, err := cl.Submit(ctx, mandelCfg(9), false)
	if err != nil {
		t.Fatal(err)
	}
	if after, err = cl.Wait(ctx, after.ID); err != nil {
		t.Fatal(err)
	}
	if after.State != serve.JobDone {
		t.Fatalf("post-cancel job ended %s: %s", after.State, after.Error)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PoolWarmLeases == 0 {
		t.Error("no warm pool leases recorded across 10 jobs")
	}
	if stats.Canceled != 1 {
		t.Errorf("canceled count = %d, want 1", stats.Canceled)
	}
}

// Admission control: with one runner and a queue of one, a third
// submission is rejected with 429 while the first two are in flight.
func TestAdmissionControl(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	first, err := cl.Submit(ctx, mandelCfg(1_000_000), false)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner picked it up so the queue slot is free.
	for {
		cur, err := cl.Job(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == serve.JobRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	second, err := cl.Submit(ctx, mandelCfg(999_999), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, mandelCfg(999_998), false); err == nil {
		t.Fatal("third submission admitted past a full queue")
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 1 {
		t.Errorf("rejected count = %d, want 1", stats.Rejected)
	}

	// A queued job cancels instantly (no runner involved).
	st, err := cl.Cancel(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.JobCanceled {
		t.Errorf("queued job state after DELETE = %s, want canceled", st.State)
	}
	if _, err := cl.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

// The frame stream delivers decodable PNG frames for a frames-enabled job.
func TestFrameStreaming(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	st, err := cl.Submit(ctx, core.Config{
		Kernel: "mandel", Variant: "seq", Dim: 32, TileW: 16,
		Iterations: 3, Threads: 1,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*gfx.Record
	if err := cl.Frames(ctx, st.ID, func(f *gfx.Record) bool {
		frames = append(frames, f)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		if f.Window != "main" || f.Iter != i+1 {
			t.Errorf("frame %d = %s/%d", i, f.Window, f.Iter)
		}
		im, err := img2d.DecodePNG(bytes.NewReader(f.Payload))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if im.Dim() != 32 {
			t.Errorf("frame %d dim %d", i, im.Dim())
		}
	}

	// Frames jobs bypass the result cache.
	again, err := cl.Submit(ctx, core.Config{
		Kernel: "mandel", Variant: "seq", Dim: 32, TileW: 16,
		Iterations: 3, Threads: 1,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("frames job served from cache")
	}
	if _, err := cl.Wait(ctx, again.ID); err != nil {
		t.Fatal(err)
	}

	// A non-frames job has no stream: 409.
	plain, err := cl.Submit(ctx, mandelCfg(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, plain.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.Frames(ctx, plain.ID, func(*gfx.Record) bool { return true }); err == nil {
		t.Error("frame stream served for a non-frames job")
	}
}

// HTTP error mapping: unknown jobs are 404, bad configs 400.
func TestHTTPErrors(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	if _, err := cl.Job(ctx, "j-999999"); err == nil {
		t.Error("unknown job id did not error")
	}
	if _, err := cl.Submit(ctx, core.Config{Kernel: "no-such-kernel"}, false); err == nil {
		t.Error("bad config did not error")
	}
	if _, err := cl.Submit(ctx, core.Config{}, false); err == nil {
		t.Error("empty config did not error")
	}
}

// Kernel discovery endpoint.
func TestKernelListing(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 2})
	ks, err := cl.Kernels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range ks {
		if k.Name == "mandel" {
			found = true
			if len(k.Variants) == 0 {
				t.Error("mandel has no variants listed")
			}
		}
	}
	if !found {
		t.Error("mandel not in kernel listing")
	}
}

// Cache eviction at capacity: the least recently used entry recomputes.
func TestCacheEviction(t *testing.T) {
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8, CacheCapacity: 2})
	defer mgr.Close()
	ctx := context.Background()

	run := func(iters int) *serve.JobStatus {
		t.Helper()
		st, err := mgr.Submit(mandelCfg(iters), false)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = mgr.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		return st
	}

	run(1) // fills slot 1
	run(2) // fills slot 2
	run(3) // evicts iters=1 (LRU)
	if st := run(2); !st.Cached {
		t.Error("iters=2 should still be cached")
	}
	if st := run(1); st.Cached {
		t.Error("iters=1 survived eviction from a capacity-2 cache")
	}
	stats := mgr.Stats()
	if stats.CacheSize > 2 {
		t.Errorf("cache size %d exceeds capacity 2", stats.CacheSize)
	}
}

// A frames job canceled while still queued must terminate its frame
// stream: subscribers get EOF, not a hang.
func TestFrameStreamEndsOnQueuedCancel(t *testing.T) {
	_, cl := newTestService(t, serve.Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// Occupy the single runner so the frames job stays queued.
	blocker, err := cl.Submit(ctx, mandelCfg(1_000_000), false)
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, err := cl.Job(ctx, blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == serve.JobRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	fj, err := cl.Submit(ctx, mandelCfg(10), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, fj.ID); err != nil {
		t.Fatal(err)
	}
	streamCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := cl.Frames(streamCtx, fj.ID, func(*gfx.Record) bool { return true }); err != nil {
		t.Fatalf("frame stream of a queued-canceled job did not end cleanly: %v", err)
	}
	if _, err := cl.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// Terminal job records are evicted beyond MaxJobHistory, oldest first.
func TestJobHistoryEviction(t *testing.T) {
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8, MaxJobHistory: 2})
	defer mgr.Close()
	ctx := context.Background()

	var ids []string
	for i := 1; i <= 3; i++ {
		st, err := mgr.Submit(mandelCfg(i), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := mgr.Get(ids[0]); err == nil {
		t.Error("oldest terminal job survived a history of 2")
	}
	for _, id := range ids[1:] {
		if _, err := mgr.Get(id); err != nil {
			t.Errorf("job %s evicted too early: %v", id, err)
		}
	}
}

// Monitoring is scrubbed from cacheable jobs so instrumented timing never
// poisons the cache entry its uninstrumented twin hits.
func TestSubmitScrubsMonitoringForCacheableJobs(t *testing.T) {
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8})
	defer mgr.Close()
	st, err := mgr.Submit(core.Config{
		Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 16,
		Iterations: 1, Threads: 1, Monitoring: true, HeatMode: true,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.Monitoring || st.Config.HeatMode {
		t.Errorf("cacheable job kept instrumentation: %+v", st.Config)
	}
}

// Close cancels running jobs and refuses new submissions.
func TestManagerClose(t *testing.T) {
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 4})
	st, err := mgr.Submit(mandelCfg(1_000_000), false)
	if err != nil {
		t.Fatal(err)
	}
	// Let it start.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := mgr.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == serve.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	mgr.Close()
	final, err := mgr.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.JobCanceled {
		t.Errorf("running job after Close: %s", final.State)
	}
	if _, err := mgr.Submit(mandelCfg(1), false); err == nil {
		t.Error("submission accepted after Close")
	}
}
