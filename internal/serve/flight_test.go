package serve

// The compute-level singleflight: identical cacheable jobs that miss
// every cache tier share one run. Only the manager's public surface is
// used here, so the tests state the contract, not the mechanism.

import (
	"context"
	"testing"
	"time"

	"easypap/internal/core"
)

// flightCfg is a cacheable mandel job of about 2 ms per iteration on
// one thread, so identical submissions overlap and a cancel lands
// mid-run.
func flightCfg(iters int) core.Config {
	return core.Config{Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 16, TileH: 16,
		Iterations: iters, Threads: 1, Label: "flight-test"}
}

func submitN(t *testing.T, m *Manager, cfg core.Config, frames bool, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		st, err := m.Submit(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	return ids
}

// waitRunning polls until the job has left the queue.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never left the queue", id)
}

func waitAll(t *testing.T, m *Manager, ids []string) []*JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sts := make([]*JobStatus, len(ids))
	for i, id := range ids {
		st, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		sts[i] = st
	}
	return sts
}

// sameResult checks every status is done with one non-empty checksum and
// returns how many were answered by a cache tier.
func sameResult(t *testing.T, sts []*JobStatus) (cached int) {
	t.Helper()
	for _, st := range sts {
		if st.State != JobDone || st.Result == nil {
			t.Fatalf("job %s ended %s (%s)", st.ID, st.State, st.Error)
		}
		if st.Result.Checksum == "" || st.Result.Checksum != sts[0].Result.Checksum {
			t.Fatalf("checksums differ: %s has %q, %s has %q",
				st.ID, st.Result.Checksum, sts[0].ID, sts[0].Result.Checksum)
		}
		if st.Cached {
			cached++
		}
	}
	return cached
}

func TestIdenticalSubmissionsShareOneRun(t *testing.T) {
	t.Run("herd", func(t *testing.T) {
		// A one-entry memory tier: the hand-off must not need the LRU.
		m := NewManager(Options{Workers: 8, CacheCapacity: 1})
		defer m.Close()
		sts := waitAll(t, m, submitN(t, m, flightCfg(40), false, 8))
		cached := sameResult(t, sts)
		st := m.Stats()
		if st.Computed != 1 || cached != 7 || st.CacheHits != 7 {
			t.Fatalf("8 identical submissions: computed=%d cached=%d cache_hits=%d, want 1, 7, 7",
				st.Computed, cached, st.CacheHits)
		}
		for _, s := range sts {
			if s.DiskHit || s.RemoteHit || s.Result.ResumedFrom != 0 {
				t.Fatalf("shared result is not a canonical memory hit: %+v", s)
			}
		}
	})

	t.Run("leader canceled", func(t *testing.T) {
		m := NewManager(Options{Workers: 4, CacheCapacity: 1})
		defer m.Close()
		cfg := flightCfg(160)
		leader := submitN(t, m, cfg, false, 1)[0]
		waitRunning(t, m, leader)
		waiters := submitN(t, m, cfg, false, 3)
		for _, id := range waiters {
			waitRunning(t, m, id)
		}
		if _, err := m.Cancel(leader); err != nil {
			t.Fatal(err)
		}
		if st := waitAll(t, m, []string{leader})[0]; st.State != JobCanceled {
			t.Fatalf("canceled leader ended %s", st.State)
		}
		sameResult(t, waitAll(t, m, waiters))
		if st := m.Stats(); st.Computed != 1 {
			t.Fatalf("after the leader's cancel %d waiters computed, want exactly 1", st.Computed)
		}
	})

	t.Run("waiter canceled", func(t *testing.T) {
		m := NewManager(Options{Workers: 2, CacheCapacity: 1})
		defer m.Close()
		cfg := flightCfg(160)
		leader := submitN(t, m, cfg, false, 1)[0]
		waitRunning(t, m, leader)
		waiter := submitN(t, m, cfg, false, 1)[0]
		waitRunning(t, m, waiter)
		if _, err := m.Cancel(waiter); err != nil {
			t.Fatal(err)
		}
		if st := waitAll(t, m, []string{waiter})[0]; st.State != JobCanceled {
			t.Fatalf("canceled waiter ended %s", st.State)
		}
		st, err := m.Get(leader)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			t.Fatalf("the waiter's cancel was not prompt: the leader already ended %s", st.State)
		}
		sameResult(t, waitAll(t, m, []string{leader}))
		if st := m.Stats(); st.Computed != 1 || st.Canceled != 1 {
			t.Fatalf("computed=%d canceled=%d, want 1 and 1", st.Computed, st.Canceled)
		}
	})

	t.Run("frames", func(t *testing.T) {
		// Frames jobs are watched live: each one runs, none waits.
		m := NewManager(Options{Workers: 3, CacheCapacity: 1})
		defer m.Close()
		sts := waitAll(t, m, submitN(t, m, flightCfg(20), true, 3))
		if cached := sameResult(t, sts); cached != 0 {
			t.Fatalf("%d frames jobs were answered from a cache tier", cached)
		}
		if st := m.Stats(); st.Computed != 3 {
			t.Fatalf("3 identical frames jobs computed %d times, want 3", st.Computed)
		}
	})
}
