package serve

// Manager-level checkpointing tests: the exactly-once sweep (the
// feature's acceptance bar — deepening runs of one config prefix must
// never recompute an iteration another run already computed), crash
// recovery that resumes from the deepest stored checkpoint instead of
// iteration zero, and the frames-job carve-out (frames jobs with a
// stored checkpoint requeue; snapshot-less ones stay interrupted, see
// TestFramesJobAlwaysInterrupted in persist_test.go).

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve/store"
)

// ckptCfg is a life (codec-capable) config at depth iters — small
// geometry so the whole sweep fits the CI box.
func ckptCfg(iters int) core.Config {
	return core.Config{Kernel: "life", Variant: "seq", Dim: 64, TileW: 8, TileH: 8,
		Iterations: iters, Threads: 1, Seed: 3, Label: "ckpt-test"}
}

// waitSnapshots polls until the manager has durably written n snapshots
// (the spiller is write-behind, so a submission racing the previous
// job's checkpoint would nondeterministically miss the resume).
func waitSnapshots(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Stats().SnapshotsWritten >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("snapshots written never reached %d (stats: %+v)", n, m.Stats())
}

// TestSweepComputesEachIterationOnce is the acceptance test: a sweep
// over iterations {20,40,60,80} of one config with snapshotting on
// computes each iteration exactly once — every run past the first
// resumes from the previous run's end-state checkpoint — and every
// result is byte-identical to a cold (snapshot-free) run.
func TestSweepComputesEachIterationOnce(t *testing.T) {
	const every = 20
	depths := []int{20, 40, 60, 80}

	sA, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sA.Close()
	mA := NewManager(Options{Workers: 1, Store: sA, SnapshotEvery: every})
	defer mA.Close()

	sB, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sB.Close()
	mB := NewManager(Options{Workers: 1, Store: sB}) // cold reference: no checkpointing
	defer mB.Close()

	hashes := make([]string, len(depths))
	for i, n := range depths {
		stA := submitWait(t, mA, ckptCfg(n))
		if stA.State != JobDone || stA.Cached {
			t.Fatalf("sweep step %d: %+v", n, stA)
		}
		hashes[i] = stA.Hash
		// Provenance on the live job: every step but the first started
		// from the previous step's end-state snapshot.
		if want := n - every; stA.Result.ResumedFrom != want {
			t.Errorf("step %d resumed from %d, want %d", n, stA.Result.ResumedFrom, want)
		}
		if stA.Result.Iterations != n {
			t.Errorf("step %d reports %d iterations, want %d", n, stA.Result.Iterations, n)
		}
		// Each step checkpoints its own end boundary before the next
		// submission — that snapshot is what the next step resumes from.
		waitSnapshots(t, mA, int64(i+1))

		stB := submitWait(t, mB, ckptCfg(n))
		if stB.State != JobDone || stB.Result.ResumedFrom != 0 {
			t.Fatalf("cold step %d: %+v", n, stB)
		}
	}
	waitSpills(t, mA, int64(len(depths)))
	waitSpills(t, mB, int64(len(depths)))

	// Exactly once: the iteration counter is the sum of computed-this-run
	// iterations, which for a perfectly resumed sweep is just the deepest
	// depth. The cold manager pays the full quadratic bill.
	stats := mA.Stats()
	if got := stats.Kernels["life"].Iterations; got != int64(depths[len(depths)-1]) {
		t.Errorf("sweep computed %d iterations, want %d (each exactly once)", got, depths[len(depths)-1])
	}
	if cold := mB.Stats().Kernels["life"].Iterations; cold != 20+40+60+80 {
		t.Errorf("cold reference computed %d iterations, want 200", cold)
	}
	if stats.SnapshotsResumed != int64(len(depths)-1) {
		t.Errorf("snapshots_resumed = %d, want %d", stats.SnapshotsResumed, len(depths)-1)
	}
	if stats.SnapshotsWritten < int64(len(depths)) {
		t.Errorf("snapshots_written = %d, want >= %d", stats.SnapshotsWritten, len(depths))
	}

	// Byte-identity: the spilled entry of every resumed run matches the
	// cold run's — same final pixels (Checksum), same iteration count,
	// and no resume provenance leaked into the content-addressed record.
	for i, n := range depths {
		entA, ok := sA.Cache.Get(hashes[i])
		if !ok {
			t.Fatalf("step %d entry not on disk", n)
		}
		entB, ok := sB.Cache.Get(hashes[i])
		if !ok {
			t.Fatalf("cold step %d entry not on disk", n)
		}
		if entA.Result.Checksum == "" || entA.Result.Checksum != entB.Result.Checksum {
			t.Errorf("step %d: resumed checksum %q differs from cold run's %q",
				n, entA.Result.Checksum, entB.Result.Checksum)
		}
		if entA.Result.Iterations != entB.Result.Iterations || entA.Result.ResumedFrom != 0 {
			t.Errorf("step %d: cached result %+v not canonical (cold: %+v)",
				n, entA.Result, entB.Result)
		}
	}
}

// crashStoreCkpt fabricates a SIGKILL'd daemon that had checkpointing
// on: an open journal record carrying the original submit time and the
// snapshot at iteration k in the cache. The state bytes come from a
// real run, so the restarted manager restores genuine kernel state, not
// a fixture.
func crashStoreCkpt(t *testing.T, dir, id string, cfg core.Config, frames bool, k int, submitted time.Time) {
	t.Helper()
	norm, hash, err := NormalizeSubmission(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	var state []byte
	if _, err := core.RunWith(context.Background(), norm, core.RunOptions{
		SnapshotEvery: k,
		OnSnapshot: func(iter int, s []byte) {
			if iter == k {
				state = append([]byte(nil), s...)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if state == nil {
		t.Fatalf("no snapshot at iteration %d", k)
	}
	prefixHash, err := norm.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin(id, hash, frames, norm, submitted.UnixNano()); err != nil {
		t.Fatal(err)
	}
	if err := s.Cache.PutSnapshot(&store.Snapshot{PrefixHash: prefixHash, Iter: k, State: state}); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestRecoveryResumesFromCheckpoint pins the crash path end to end: the
// requeued job restarts from the stored checkpoint (not iteration
// zero), keeps its original submit time across the restart, and the
// kernel counter credits only the iterations this generation computed.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptCfg(24)
	const k = 16
	submitted := time.Unix(0, 1700000000000000000)
	crashStoreCkpt(t, dir, "j-000003", cfg, false, k, submitted)

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s})
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, "j-000003")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || !st.Recovered {
		t.Fatalf("recovered job: %+v", st)
	}
	if st.Result.ResumedFrom != k {
		t.Errorf("recovered job resumed from %d, want %d", st.Result.ResumedFrom, k)
	}
	if st.Result.Iterations != cfg.Iterations {
		t.Errorf("recovered job reports %d iterations, want %d", st.Result.Iterations, cfg.Iterations)
	}
	if !st.SubmittedAt.Equal(submitted) {
		t.Errorf("recovered job lost its submit time: %v, want %v", st.SubmittedAt, submitted)
	}
	stats := m.Stats()
	if stats.SnapshotsResumed != 1 {
		t.Errorf("snapshots_resumed = %d, want 1", stats.SnapshotsResumed)
	}
	if got := stats.Kernels["life"].Iterations; got != int64(cfg.Iterations-k) {
		t.Errorf("kernel counter credits %d iterations, want %d (only what this run computed)",
			got, cfg.Iterations-k)
	}

	// The resumed result must match a cold run byte for byte.
	waitSpills(t, m, 1)
	ent, ok := s.Cache.Get(st.Hash)
	if !ok {
		t.Fatal("recovered job's entry not on disk")
	}
	cold := coldResult(t, cfg)
	if ent.Result.Checksum == "" || ent.Result.Checksum != cold.Checksum ||
		ent.Result.Iterations != cold.Iterations {
		t.Errorf("resumed result (checksum %q, %d iterations) not identical to cold run (%q, %d)",
			ent.Result.Checksum, ent.Result.Iterations, cold.Checksum, cold.Iterations)
	}
}

// coldResult computes the reference spilled result for cfg through a
// snapshot-free manager with its own store.
func coldResult(t *testing.T, cfg core.Config) core.Result {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s})
	defer m.Close()
	st := submitWait(t, m, cfg)
	waitSpills(t, m, 1)
	ent, ok := s.Cache.Get(st.Hash)
	if !ok {
		t.Fatal("reference entry not on disk")
	}
	return ent.Result
}

// TestFramesJobWithCheckpointRequeued pins the frames carve-out: a
// frames job is normally interrupted on restart (its subscribers are
// gone and replaying every frame would be wrong), but one whose prefix
// has a stored checkpoint requeues and finishes from there — the
// terminal state and final frames survive even though the live stream
// did not. The interrupted one still reports "frames": true, as its
// journal record says.
func TestFramesJobWithCheckpointRequeued(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptCfg(24)
	const k = 8
	crashStoreCkpt(t, dir, "j-000005", cfg, true, k, time.Unix(0, 1700000000000000000))
	// A second frames job whose prefix has no stored checkpoint: recovery
	// interrupts it, and its status must still say it was a frames job.
	bare := ckptCfg(24)
	bare.Seed = 4
	norm, hash, err := NormalizeSubmission(bare, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin("j-000006", hash, true, norm, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s}) // default requeue policy
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, "j-000005")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || !st.Recovered || !st.Frames {
		t.Fatalf("checkpointed frames job should requeue and finish: %+v", st)
	}
	if st.Result.ResumedFrom != k {
		t.Errorf("frames job resumed from %d, want %d", st.Result.ResumedFrom, k)
	}
	if st, err = m.Get("j-000006"); err != nil || st.State != JobInterrupted || !st.Frames {
		t.Fatalf("frames job without a checkpoint should be interrupted and keep frames: %+v (%v)", st, err)
	}
	if got := m.Stats().InterruptedJobs; got != 1 {
		t.Errorf("interrupted_jobs = %d, want 1", got)
	}
}

// TestRecoveryIgnoresLegacySnapRecords: older daemons journaled each
// checkpoint as a snap record, and recovery trusted it. Recovery now asks
// the store. A frames job whose journal has a snap record but whose
// snapshot is gone (evicted) is interrupted, and a frames job with no
// snap record whose prefix has a stored snapshot (another job wrote it)
// requeues and resumes from it.
func TestRecoveryIgnoresLegacySnapRecords(t *testing.T) {
	dir := t.TempDir()
	const k = 8
	crashStoreCkpt(t, dir, "j-000001", ckptCfg(24), true, k, time.Unix(0, 1700000000000000000))
	evicted := ckptCfg(30)
	evicted.Seed = 4 // another prefix, with no snapshot stored
	norm, hash, err := NormalizeSubmission(evicted, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin("j-000002", hash, true, norm, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The snap record an older daemon appended for j-000002's checkpoint.
	head := fmt.Sprintf("EZJRN snap j-000002 %d 0 0 00000000", k)
	line := fmt.Sprintf("%s %08x\n", head, crc32.Checksum([]byte(head), crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewManager(Options{Workers: 1, Store: s})
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, "j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || !st.Recovered || st.Result.ResumedFrom != k {
		t.Fatalf("frames job with a stored snapshot should requeue and resume from %d: %+v", k, st)
	}
	if st, err = m.Get("j-000002"); err != nil || st.State != JobInterrupted {
		t.Fatalf("frames job whose snapshot is gone should be interrupted: %+v (%v)", st, err)
	}
}
