package serve

// Integration tests of the persistence layer wired through the Manager:
// two-tier cache lookups (memory → disk → compute), write-behind
// spilling, journal recovery across simulated daemon generations
// (close the manager abruptly? no — fabricate the crash at the store
// level, which is exactly what a SIGKILL leaves behind), and the
// interrupted-status surface.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"easypap/internal/core"
	_ "easypap/internal/kernels"
	"easypap/internal/serve/store"
)

func testCfg(dim int) core.Config {
	return core.Config{Kernel: "mandel", Variant: "seq", Dim: dim, TileW: 8, TileH: 8,
		Iterations: 2, Threads: 1, Label: "persist-test"}
}

// waitSpills polls until the manager has spilled n entries to disk.
func waitSpills(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Stats().Spills >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("spills never reached %d (stats: %+v)", n, m.Stats())
}

func submitWait(t *testing.T, m *Manager, cfg core.Config) *JobStatus {
	t.Helper()
	st, err := m.Submit(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if st, err = m.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestTwoTierLookup(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// CacheCapacity 1: submitting A then B evicts A from memory, so the
	// third submission of A can only be answered by the disk tier.
	m := NewManager(Options{Workers: 1, CacheCapacity: 1, Store: s})
	defer m.Close()

	a, b := testCfg(32), testCfg(64)
	stA := submitWait(t, m, a)
	if stA.State != JobDone || stA.Cached {
		t.Fatalf("first run of A: %+v", stA)
	}
	submitWait(t, m, b) // evicts A's memory entry
	waitSpills(t, m, 2)

	stA2 := submitWait(t, m, a)
	if stA2.State != JobDone || !stA2.Cached || !stA2.DiskHit {
		t.Fatalf("A after eviction should be a disk hit: %+v", stA2)
	}
	if stA2.Result.Iterations != stA.Result.Iterations || stA2.Hash != stA.Hash {
		t.Fatalf("disk tier returned a different result: %+v vs %+v", stA2.Result, stA.Result)
	}

	// Promotion: the disk hit refilled the memory tier, so the next
	// lookup is a pure memory hit.
	stA3 := submitWait(t, m, a)
	if !stA3.Cached || stA3.DiskHit {
		t.Fatalf("A after promotion should be a memory hit: %+v", stA3)
	}

	st := m.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("disk_hits=%d, want 1", st.DiskHits)
	}
	if st.Computed != 2 {
		t.Fatalf("computed=%d, want 2 (A and B once each)", st.Computed)
	}
	if st.DiskEntries != 2 || st.DiskBytes <= 0 {
		t.Fatalf("disk tier empty: %+v", st)
	}

	// The replica rung: a fetch hook answers C, which neither local
	// tier holds, with an entry computed elsewhere and its wire bytes.
	c := testCfg(48)
	other := NewManager(Options{Workers: 1})
	defer other.Close()
	ref := submitWait(t, other, c)
	fetched := &store.Entry{Hash: ref.Hash, Result: *ref.Result}
	var wire bytes.Buffer
	if err := fetched.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	fetches := 0
	m.SetClusterHooks(&ClusterHooks{Fetch: func(hash, traceID string) (*store.Entry, []byte) {
		if hash != ref.Hash || traceID == "" {
			return nil, nil
		}
		fetches++
		return fetched, wire.Bytes()
	}})
	counts := func() (mem, disk, replica uint64) {
		return m.obs.stages[StageCacheMem].Count(), m.obs.stages[StageCacheDisk].Count(),
			m.obs.stages[StageReplicaFetch].Count()
	}
	memN, diskN, replicaN := counts()
	stC := submitWait(t, m, c)
	if !stC.Cached || !stC.RemoteHit || stC.DiskHit || stC.Result.Checksum != ref.Result.Checksum {
		t.Fatalf("C should be a remote hit with the replica's checksum: %+v", stC)
	}
	if mem, disk, replica := counts(); mem != memN+1 || disk != diskN+1 || replica != replicaN+1 {
		t.Fatalf("stage counts memory %d→%d, disk %d→%d, replica %d→%d: each rung asked once",
			memN, mem, diskN, disk, replicaN, replica)
	}
	if got, ok := m.GetEntryWire(ref.Hash); !ok || !bytes.Equal(got, wire.Bytes()) {
		t.Fatalf("disk tier holds %q (%v) for the fetched entry, want the bytes fetched %q", got, ok, wire.Bytes())
	}
	// Promotion: the replica hit filled memory (a memory hit next) and
	// disk synchronously (a disk hit once B evicts C from memory).
	if st := submitWait(t, m, c); !st.Cached || st.DiskHit || st.RemoteHit {
		t.Fatalf("C after a remote hit should be a memory hit: %+v", st)
	}
	submitWait(t, m, b)
	stC3 := submitWait(t, m, c)
	if !stC3.DiskHit || stC3.Result.Checksum != ref.Result.Checksum {
		t.Fatalf("C after eviction should be a disk hit with the same checksum: %+v", stC3)
	}
	st = m.Stats()
	if fetches != 1 || st.RemoteHits != 1 || st.Computed != 2 {
		t.Fatalf("fetches=%d remote_hits=%d computed=%d, want 1, 1, 2", fetches, st.RemoteHits, st.Computed)
	}
	if mem, disk, replica := counts(); mem != memN+4 || disk != diskN+3 || replica != replicaN+1 {
		t.Fatalf("stage counts memory %d→%d, disk %d→%d, replica %d→%d after four lookups",
			memN, mem, diskN, disk, replicaN, replica)
	}
}

func TestDiskCacheSurvivesManagerRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(32)

	// Generation 1 computes and spills.
	s1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{Workers: 1, Store: s1})
	st1 := submitWait(t, m1, cfg)
	waitSpills(t, m1, 1)
	m1.Close()
	// Identity baseline: the stored entry as generation 1 wrote it.
	ent1, ok := s1.Cache.Get(st1.Hash)
	if !ok {
		t.Fatal("entry not on disk after spill")
	}
	s1.Close()
	if ent1.Result.Checksum == "" || ent1.Result.Checksum != st1.Result.Checksum {
		t.Fatalf("spilled checksum %q, computed %q", ent1.Result.Checksum, st1.Result.Checksum)
	}
	// A spilled entry is its result: no endpoint serves a cached run's
	// image, so the spill encodes none.
	if len(ent1.Frames) != 0 {
		t.Fatalf("spilled entry carries %d frame bytes, want an empty frames section", len(ent1.Frames))
	}

	// Generation 2 starts cold in memory, warm on disk.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2 := NewManager(Options{Workers: 1, Store: s2})
	defer m2.Close()

	st2 := submitWait(t, m2, cfg)
	if !st2.Cached || !st2.DiskHit {
		t.Fatalf("restarted manager should hit disk: %+v", st2)
	}
	if got := m2.Stats(); got.Computed != 0 || got.DiskHits != 1 {
		t.Fatalf("restart served by recompute: computed=%d disk_hits=%d", got.Computed, got.DiskHits)
	}
	ent2, ok := s2.Cache.Get(st2.Hash)
	if !ok {
		t.Fatal("entry vanished after restart")
	}
	// The disk hit serves the result generation 1 computed: same final
	// pixels, same depth.
	for _, r := range []*core.Result{&ent2.Result, st2.Result} {
		if r.Checksum != ent1.Result.Checksum || r.Iterations != ent1.Result.Iterations {
			t.Fatalf("result not identical across restart: checksum %q after %d iterations, want %q after %d",
				r.Checksum, r.Iterations, ent1.Result.Checksum, ent1.Result.Iterations)
		}
	}
}

// crashStore fabricates what a SIGKILL'd daemon leaves behind: a
// journal with open (never-ended) jobs.
func crashStore(t *testing.T, dir string, jobs map[string]core.Config, frames map[string]bool) {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, cfg := range jobs {
		norm, hash, err := NormalizeSubmission(cfg, frames[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Journal.Begin(id, hash, frames[id], norm, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
}

func TestJournalRecoveryRequeuesJobs(t *testing.T) {
	dir := t.TempDir()
	crashStore(t, dir, map[string]core.Config{
		"j-000004": testCfg(32),
		"j-000007": testCfg(64),
	}, nil)

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s})
	defer m.Close()

	// The recovered jobs are pollable under their pre-crash ids and run
	// to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{"j-000004", "j-000007"} {
		st, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("waiting for recovered job %s: %v", id, err)
		}
		if st.State != JobDone || !st.Recovered {
			t.Fatalf("recovered job %s: %+v", id, st)
		}
	}
	if st := m.Stats(); st.RecoveredJobs != 2 || st.Computed != 2 {
		t.Fatalf("recovered=%d computed=%d, want 2/2", st.RecoveredJobs, st.Computed)
	}

	// New ids must not collide with journaled ones: the sequence resumed
	// past j-000007.
	st, err := m.Submit(testCfg(16), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID <= "j-000007" {
		t.Fatalf("new id %s did not resume past recovered ids", st.ID)
	}
}

func TestJournalRecoveryInterruptPolicy(t *testing.T) {
	dir := t.TempDir()
	crashStore(t, dir, map[string]core.Config{"j-000001": testCfg(32)}, nil)

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s, Recover: RecoverInterrupt})
	defer m.Close()

	st, err := m.Get("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobInterrupted || !st.Recovered || !st.State.Terminal() {
		t.Fatalf("interrupt policy: %+v", st)
	}
	if got := m.Stats(); got.InterruptedJobs != 1 || got.Computed != 0 {
		t.Fatalf("interrupted=%d computed=%d, want 1/0", got.InterruptedJobs, got.Computed)
	}

	// The journal no longer replays it: a second generation is clean.
	m.Close()
	s.Close()
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := len(s2.Journal.Recovered()); n != 0 {
		t.Fatalf("interrupted job still open in journal (%d records)", n)
	}
}

// TestGracefulShutdownPreservesRecoverySet pins the rolling-deploy
// story (found in review): a SIGTERM drain (Manager.Close) cancels
// in-flight jobs but must NOT journal them as terminal — the next
// generation recovers them, exactly as after a crash.
func TestGracefulShutdownPreservesRecoverySet(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Workers: 1, Store: s})

	// In flight at Close, yet short enough that the recovered run ends
	// well inside the Wait deadline below. The mandel zoom deepens, so
	// later iterations cost more: on a 2-vCPU machine 500 iterations took
	// 33 s, 50 about 2.4 s.
	slow := testCfg(256)
	slow.Iterations = 50
	st, err := m.Submit(slow, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("slow job finished instantly: %+v", st)
	}
	m.Close() // graceful drain cancels it
	if got := s.Journal.OpenCount(); got != 1 {
		t.Fatalf("journal open count after graceful shutdown = %d, want 1 (the drained job)", got)
	}
	s.Close()

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2 := NewManager(Options{Workers: 1, Store: s2})
	defer m2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := m2.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || !done.Recovered {
		t.Fatalf("job did not ride through the restart: %+v", done)
	}
}

func TestFramesJobAlwaysInterrupted(t *testing.T) {
	dir := t.TempDir()
	crashStore(t, dir, map[string]core.Config{"j-000001": testCfg(32)},
		map[string]bool{"j-000001": true})

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s}) // default requeue policy
	defer m.Close()

	st, err := m.Get("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobInterrupted {
		t.Fatalf("frames job should be interrupted, not %s", st.State)
	}
}
