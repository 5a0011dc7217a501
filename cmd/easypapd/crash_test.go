package main

// The crash/restart acceptance test of the persistence layer, against a
// REAL daemon process: build easypapd, run it on a data dir, warm the
// disk cache, SIGKILL it mid-sweep (no goodbye, no flush — the crash the
// journal exists for), restart on the same dir, and assert
//
//   - the journaled in-flight jobs are re-run under their original ids,
//   - every pre-crash result is served from disk without recompute
//     (stats: disk_hits > 0, computed == 0 for the replayed set),
//   - the disk entries are byte-identical to what the pre-crash daemon
//     wrote, and each decodes to the result (Checksum, Iterations) the
//     daemon serves for its config.
//
// Skipped under -short: it builds a binary and kills processes, which
// is meaningful only as a non-race integration step (CI runs it in a
// dedicated job).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/store"
)

// daemonProc is one generation of the real daemon.
type daemonProc struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "easypapd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building easypapd: %v\n%s", err, out)
	}
	return bin
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func startDaemon(t *testing.T, bin string, port int, dataDir string, extra ...string) *daemonProc {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-workers", "1", "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemonProc{t: t, cmd: cmd, base: "http://" + addr}
	t.Cleanup(func() { d.kill() })
	// Wait for the daemon to come up.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := http.Get(d.base + "/v1/stats"); err == nil {
			return d
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon on %s never came up", addr)
	return nil
}

// kill SIGKILLs the daemon — the crash under test, not a shutdown.
func (d *daemonProc) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
		_, _ = d.cmd.Process.Wait()
	}
}

func (d *daemonProc) getJSON(path string, out any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *daemonProc) submit(cfg core.Config) (*serve.JobStatus, error) {
	body, err := json.Marshal(serve.SubmitRequest{Config: cfg})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit returned %s", resp.Status)
	}
	var st serve.JobStatus
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

func (d *daemonProc) wait(id string, timeout time.Duration) (*serve.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st serve.JobStatus
		if err := d.getJSON("/v1/jobs/"+id, &st); err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return &st, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("job %s never finished", id)
}

func (d *daemonProc) stats(t *testing.T) serve.Stats {
	t.Helper()
	var st serve.Stats
	if err := d.getJSON("/v1/stats", &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// entryBytes reads the raw on-disk object file for a config hash (the
// layout is pinned by the store golden test).
func entryBytes(t *testing.T, dataDir, hash string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dataDir, "objects", hash[:2], hash))
	if err != nil {
		t.Fatalf("reading disk entry for %s: %v", hash, err)
	}
	return raw
}

// decodeEntry parses a raw disk entry with the store's own decoder, so
// the CRC is checked and the result comes back typed.
func decodeEntry(t *testing.T, raw []byte) *store.Entry {
	t.Helper()
	e, err := store.DecodeEntry(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding disk entry: %v", err)
	}
	return e
}

func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process crash test; skipped under -short")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	port := freePort(t)

	// --- generation 1: warm the disk, crash mid-sweep ----------------
	d1 := startDaemon(t, bin, port, dataDir)

	fast := []core.Config{
		{Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 8, Iterations: 3, Threads: 1},
		{Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 16, Iterations: 3, Threads: 1},
		{Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 32, Iterations: 3, Threads: 1},
	}
	hashes := make([]string, len(fast))
	for i, cfg := range fast {
		st, err := d1.submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = d1.wait(st.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		} else if st.State != serve.JobDone {
			t.Fatalf("warmup job %d: %+v", i, st)
		}
		hashes[i] = st.Hash
	}
	// Wait for the write-behind spiller before crashing.
	deadline := time.Now().Add(10 * time.Second)
	for d1.stats(t).Spills < int64(len(fast)) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := d1.stats(t); got.Spills < int64(len(fast)) {
		t.Fatalf("spills=%d, want %d", got.Spills, len(fast))
	}
	preCrash := make([][]byte, len(hashes))
	for i, h := range hashes {
		preCrash[i] = entryBytes(t, dataDir, h)
	}

	// A slow job plus one queued behind it (1 worker): both will be
	// in-flight when the process dies.
	slow := core.Config{Kernel: "mandel", Variant: "seq", Dim: 256, TileW: 8, Iterations: 60, Threads: 1}
	queued := core.Config{Kernel: "mandel", Variant: "seq", Dim: 128, TileW: 8, Iterations: 10, Threads: 1}
	stSlow, err := d1.submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	stQueued, err := d1.submit(queued)
	if err != nil {
		t.Fatal(err)
	}
	// Let the slow job reach the running state, then crash.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st serve.JobStatus
		if err := d1.getJSON("/v1/jobs/"+stSlow.ID, &st); err == nil && st.State == serve.JobRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	d1.kill()

	// --- generation 2: recover on the same data dir ------------------
	d2 := startDaemon(t, bin, port, dataDir)

	// The journaled jobs re-run under their ORIGINAL ids.
	for _, id := range []string{stSlow.ID, stQueued.ID} {
		st, err := d2.wait(id, 60*time.Second)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if st.State != serve.JobDone || !st.Recovered {
			t.Fatalf("recovered job %s: %+v", id, st)
		}
	}
	afterRecovery := d2.stats(t)
	if afterRecovery.RecoveredJobs != 2 {
		t.Fatalf("recovered_jobs=%d, want 2", afterRecovery.RecoveredJobs)
	}

	// Replay the pre-crash sweep: every config must be served from disk
	// — computed stays frozen, disk_hits counts every replay, entries
	// are byte-identical to what generation 1 wrote.
	for i, cfg := range fast {
		st, err := d2.submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			if st, err = d2.wait(st.ID, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != serve.JobDone || !st.Cached || !st.DiskHit {
			t.Fatalf("replayed config %d not served from disk: %+v", i, st)
		}
		if st.Hash != hashes[i] {
			t.Fatalf("replayed config %d hashed %s, want %s", i, st.Hash, hashes[i])
		}
		if got := entryBytes(t, dataDir, st.Hash); !bytes.Equal(got, preCrash[i]) {
			t.Fatalf("disk entry %d changed across the crash (%d vs %d bytes)", i, len(got), len(preCrash[i]))
		}
		ent := decodeEntry(t, preCrash[i])
		if ent.Result.Checksum == "" || st.Result == nil ||
			ent.Result.Checksum != st.Result.Checksum || ent.Result.Iterations != st.Result.Iterations {
			t.Fatalf("entry %d holds result %q after %d iterations, daemon served %+v",
				i, ent.Result.Checksum, ent.Result.Iterations, st.Result)
		}
	}
	final := d2.stats(t)
	if final.DiskHits < int64(len(fast)) {
		t.Fatalf("disk_hits=%d, want >= %d", final.DiskHits, len(fast))
	}
	if final.Computed != afterRecovery.Computed {
		t.Fatalf("replayed set recomputed: computed went %d -> %d",
			afterRecovery.Computed, final.Computed)
	}
}

// TestCrashRestartResumesFromCheckpoint: with -snapshot-every the
// daemon checkpoints kernel state mid-job, so a SIGKILL'd job restarts
// from its deepest durable checkpoint instead of iteration zero — the
// restarted generation computes strictly fewer iterations than the job
// asked for, yet produces a result byte-identical to an uninterrupted
// run.
func TestCrashRestartResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process crash test; skipped under -short")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	port := freePort(t)

	// life is stateful (unlike mandel, whose iterations are independent),
	// so a wrong resume would visibly corrupt the final board.
	cfg := core.Config{Kernel: "life", Variant: "seq", Dim: 256, TileW: 8,
		Iterations: 4000, Threads: 1, Seed: 7}

	// --- generation 1: checkpoint mid-job, then SIGKILL ---------------
	d1 := startDaemon(t, bin, port, dataDir, "-snapshot-every", "64")
	st, err := d1.submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least two durable checkpoints, then crash while the
	// job is still running — the whole point is dying mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if d1.stats(t).SnapshotsWritten >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := d1.stats(t); got.SnapshotsWritten < 2 {
		t.Fatalf("snapshots_written=%d, want >= 2 before the crash", got.SnapshotsWritten)
	}
	var cur serve.JobStatus
	if err := d1.getJSON("/v1/jobs/"+st.ID, &cur); err != nil {
		t.Fatal(err)
	}
	if cur.State.Terminal() {
		t.Fatalf("job finished before the crash (%s) — raise Iterations", cur.State)
	}
	d1.kill()

	// --- generation 2: recover, resume, finish ------------------------
	d2 := startDaemon(t, bin, port, dataDir, "-snapshot-every", "64")
	done, err := d2.wait(st.ID, 120*time.Second)
	if err != nil {
		t.Fatalf("recovered job %s: %v", st.ID, err)
	}
	if done.State != serve.JobDone || !done.Recovered {
		t.Fatalf("recovered job: %+v", done)
	}
	if done.Result == nil || done.Result.ResumedFrom <= 0 {
		t.Fatalf("recovered job did not resume from a checkpoint: %+v", done.Result)
	}
	if done.Result.Iterations != cfg.Iterations {
		t.Fatalf("recovered job reports %d iterations, want %d", done.Result.Iterations, cfg.Iterations)
	}
	stats := d2.stats(t)
	if stats.SnapshotsResumed < 1 {
		t.Fatalf("snapshots_resumed=%d, want >= 1", stats.SnapshotsResumed)
	}
	// The restarted generation computed only the suffix: the kernel
	// counter stays strictly below the job's total depth.
	if got := stats.Kernels["life"].Iterations; got <= 0 || got >= int64(cfg.Iterations) {
		t.Fatalf("generation 2 computed %d iterations, want 0 < n < %d (resume skipped the prefix)",
			got, cfg.Iterations)
	}
	// Wait for the spill so the disk entry is readable.
	deadline = time.Now().Add(10 * time.Second)
	for d2.stats(t).Spills < 1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	resumed := decodeEntry(t, entryBytes(t, dataDir, done.Hash)).Result

	// --- reference: the same config, never interrupted ----------------
	refDir := t.TempDir()
	refPort := freePort(t)
	dr := startDaemon(t, bin, refPort, refDir)
	refSt, err := dr.submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if refSt, err = dr.wait(refSt.ID, 120*time.Second); err != nil {
		t.Fatal(err)
	} else if refSt.State != serve.JobDone {
		t.Fatalf("reference run: %+v", refSt)
	}
	deadline = time.Now().Add(10 * time.Second)
	for dr.stats(t).Spills < 1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if refSt.Hash != done.Hash {
		t.Fatalf("reference hashed %s, recovered job %s", refSt.Hash, done.Hash)
	}
	// Checksum and Iterations are the part of the result that is a pure
	// function of the computed board (wall-clock timings legitimately
	// differ between runs).
	ref := decodeEntry(t, entryBytes(t, refDir, refSt.Hash)).Result
	if resumed.Checksum == "" || resumed.Checksum != ref.Checksum || resumed.Iterations != ref.Iterations {
		t.Fatalf("resumed result (checksum %q, %d iterations) differs from the uninterrupted run (%q, %d) — the checkpoint corrupted the board",
			resumed.Checksum, resumed.Iterations, ref.Checksum, ref.Iterations)
	}
}

// TestCrashRestartInterruptPolicy: with -recover interrupt the crashed
// jobs come back terminal with the typed "interrupted" status instead
// of re-running.
func TestCrashRestartInterruptPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process crash test; skipped under -short")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	port := freePort(t)

	d1 := startDaemon(t, bin, port, dataDir)
	slow := core.Config{Kernel: "mandel", Variant: "seq", Dim: 256, TileW: 8, Iterations: 60, Threads: 1}
	st, err := d1.submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var cur serve.JobStatus
		if err := d1.getJSON("/v1/jobs/"+st.ID, &cur); err == nil && cur.State == serve.JobRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	d1.kill()

	d2 := startDaemon(t, bin, port, dataDir, "-recover", "interrupt")
	var got serve.JobStatus
	if err := d2.getJSON("/v1/jobs/"+st.ID, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != serve.JobInterrupted || !got.Recovered {
		t.Fatalf("interrupt policy: %+v", got)
	}
	if s := d2.stats(t); s.InterruptedJobs != 1 || s.Computed != 0 {
		t.Fatalf("interrupted=%d computed=%d, want 1/0", s.InterruptedJobs, s.Computed)
	}
}
