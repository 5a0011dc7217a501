package serve

import (
	"context"
	"errors"
	"time"

	"easypap/internal/core"
	"easypap/internal/sched"
	"easypap/internal/serve/store"
)

// spillReq is one completed result (a *store.Entry) or one mid-run
// checkpoint (a *store.Snapshot) on its way to the disk tier.
type spillReq struct {
	rec     store.Record
	job     string
	traceID string
}

// spiller is the write-behind worker of the disk tier: it persists the
// entry — the result JSON alone, whose Checksum pins the final pixels;
// no endpoint serves a cached run's image, so none is encoded — and
// the periodic checkpoints. Spilling at completion (not at memory
// eviction) is what makes a crash lose nothing — an entry that never
// got evicted must still be on disk when the daemon dies.
func (m *Manager) spiller() {
	defer m.spillWg.Done()
	for req := range m.spill {
		begin := time.Now()
		stage, written := StageSpill, &m.spills
		var err error
		switch r := req.rec.(type) {
		case *store.Entry:
			err = m.store.Cache.Put(r)
		case *store.Snapshot:
			// Checkpoint write-behind: once stored, the snapshot is what a
			// crash-recovered job, or any submission sharing the iteration
			// prefix, resumes from.
			stage, written = StageSnapshot, &m.snapsWritten
			err = m.store.Cache.PutSnapshot(r)
		}
		m.span(stage, req.traceID, req.job, begin, time.Now(), err)
		if err != nil {
			m.spillErrs.Add(1)
			continue
		}
		written.Add(1)
		if hook := m.hooks.Load().Spilled; hook != nil {
			// Replication rides the spill: the record is durable locally,
			// now the cluster layer pushes it to the ring successors.
			hook(req.rec, req.traceID)
		}
	}
}

// runner executes queued jobs until the queue closes.
func (m *Manager) runner() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through lease → run → release → publish.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		// Canceled (or manager shut down) while still queued.
		m.finish(j, nil, err)
		j.mu.Unlock()
		m.retire(j)
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	// Queue wait: admission → a runner picked the job up.
	m.span(StageQueue, j.traceID, j.id, j.submitted, j.started, nil)

	m.running.Add(1)
	defer m.running.Add(-1)

	if j.frames == nil {
		if shared, err := m.await(j); shared != nil || err != nil {
			// An identical run answered (a memory hit), or j ended waiting.
			j.mu.Lock()
			var out *core.RunOutput
			if shared != nil {
				m.cache.hits.Add(1)
				j.tier, out = StageCacheMem, &core.RunOutput{Result: *shared}
			}
			m.finish(j, out, err)
			j.mu.Unlock()
			m.retire(j)
			return
		}
	}

	opts := core.RunOptions{RecvTimeout: m.opts.RecvTimeout}
	opts.OnActivity = func(a core.IterActivity) {
		st := &ActivityStatus{Iter: a.Iter, Active: a.Active, Total: a.Total}
		if a.Total > 0 {
			st.Ratio = float64(a.Active) / float64(a.Total)
		}
		j.mu.Lock()
		j.activity = st
		j.mu.Unlock()
	}
	m.setupCheckpointing(j, &opts)
	var leased *sched.Pool
	if j.cfg.MPIRanks <= 1 {
		// Distributed jobs own one private pool per rank inside core; only
		// single-process jobs can lease a warm pool.
		leaseStart := time.Now()
		leased = m.pools.lease(j.cfg.Threads)
		m.span(StageLease, j.traceID, j.id, leaseStart, time.Now(), nil)
		opts.Pool = leased
	}
	if j.frames != nil {
		opts.Sink = newHubSink(j.frames)
	}

	computeStart := time.Now()
	var out *core.RunOutput
	var err error
	if hook := m.hooks.Load().RunSharded; hook != nil && j.shards > 1 {
		// Distributed execution: the coordinator hook splits the job into
		// row bands across the cluster and returns rank 0's stitched
		// output. The leased pool (if any) goes unused — each rank builds
		// its own team — but mpi variants carry MPIRanks >= 2, so the
		// warm-lease branch above already skipped them.
		m.jobsCoordinated.Add(1)
		out, err = hook(j.ctx, ShardJob{
			ID: j.id, TraceID: j.traceID, Config: j.cfg, Shards: j.shards,
			Frames: j.frames != nil, Sink: opts.Sink, OnActivity: opts.OnActivity,
		})
	} else {
		out, err = core.RunWith(j.ctx, j.cfg, opts)
	}
	m.span(StageCompute, j.traceID, j.id, computeStart, time.Now(), err)

	if leased != nil {
		m.pools.release(leased)
	}

	j.mu.Lock()
	m.finish(j, out, err)
	j.mu.Unlock()
	m.retire(j)
}

// flight is one run of a cacheable hash in progress. Identical jobs
// that reach a runner meanwhile wait for it instead of computing.
type flight struct {
	done   chan struct{}
	result *core.Result // canonical result; nil when the run failed or was canceled
}

// await is the compute-level singleflight of a cacheable job, called by
// its runner before computing. It returns an identical run's canonical
// result — from the memory tier, or handed over by a run in flight when
// it ends — or, with both nil, makes j the leader of a new flight. A
// waiter whose leader failed or was canceled tries again, so exactly
// one waiter leads next; one whose own job ends first returns its
// context error. The hand-off goes through the flight, not the LRU, so
// it holds however small the memory tier is.
func (m *Manager) await(j *job) (*core.Result, error) {
	for {
		m.flightMu.Lock()
		if r, ok := m.cache.get(j.hash); ok {
			m.flightMu.Unlock()
			return &r, nil
		}
		f := m.flights[j.hash]
		if f == nil {
			j.flight = &flight{done: make(chan struct{})}
			m.flights[j.hash] = j.flight
			m.flightMu.Unlock()
			return nil, nil
		}
		m.flightMu.Unlock()
		select {
		case <-f.done:
			if f.result != nil {
				return f.result, nil
			}
		case <-j.ctx.Done():
			return nil, j.ctx.Err()
		}
	}
}

// resumePoint looks up the checkpoint a run of j resumes from: the
// deepest stored snapshot of its prefix strictly below its target (a
// snapshot AT the target would be the finished result, and that lives
// in the entry cache, which Submit already consulted). ok is false for
// runs that do not checkpoint: without a store, sharded or multi-rank,
// or of a kernel with no state codec. Recovery asks it too, whether a
// frames job can resume.
func (m *Manager) resumePoint(j *job) (prefixHash string, s *store.Snapshot, ok bool) {
	if m.store == nil || j.shards > 1 || j.cfg.MPIRanks > 1 {
		return "", nil, false
	}
	k, err := core.Lookup(j.cfg.Kernel)
	if err != nil || k.Codec == nil {
		return "", nil, false
	}
	if prefixHash, err = j.cfg.PrefixHash(); err != nil {
		return "", nil, false
	}
	s, _ = m.store.Cache.DeepestSnapshot(prefixHash, j.cfg.Iterations-1)
	return prefixHash, s, true
}

// setupCheckpointing wires iteration-prefix checkpointing into a run:
// resume from resumePoint's snapshot (the shared prefix is never
// recomputed), and — when SnapshotEvery is on — hand periodic state
// snapshots to the write-behind spiller. Runs that do not checkpoint
// run exactly as before. Resumption needs no SnapshotEvery: the
// snapshots may have been written by an earlier daemon generation or
// pushed by a ring peer.
func (m *Manager) setupCheckpointing(j *job, opts *core.RunOptions) {
	lookup := time.Now()
	prefixHash, s, ok := m.resumePoint(j)
	if !ok {
		return
	}
	if s != nil {
		opts.Resume = &core.ResumeState{Iter: s.Iter, State: s.State}
		m.snapsResumed.Add(1)
		m.span(StageResume, j.traceID, j.id, lookup, time.Now(), nil)
	}
	if m.opts.SnapshotEvery > 0 {
		opts.SnapshotEvery = m.opts.SnapshotEvery
		opts.OnSnapshot = func(iter int, state []byte) {
			// Same shed rule as result spills: dropping a checkpoint under
			// a full spill queue only costs recompute, never correctness.
			select {
			case m.spill <- spillReq{job: j.id, traceID: j.traceID,
				rec: &store.Snapshot{PrefixHash: prefixHash, Iter: iter, State: state}}:
			default:
				m.spillDrops.Add(1)
			}
		}
	}
}

// finish moves a job to its terminal state and publishes the result.
// Callers hold j.mu, and retire the job once they have released it.
func (m *Manager) finish(j *job, out *core.RunOutput, err error) {
	now := time.Now()
	if j.started.IsZero() {
		j.started = now
	}
	j.finished = now
	var canonical *core.Result
	switch {
	case err != nil && errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.errMsg = err.Error()
		m.canceled.Add(1)
	case err != nil:
		j.state = JobFailed
		j.errMsg = err.Error()
		if errors.Is(err, ErrShardFailed) {
			// Typed: the client reads ErrorKind and resubmits unsharded.
			j.errKind = ErrorKindShardFailed
		}
		m.failed.Add(1)
	default:
		j.state = JobDone
		// The history keeps the result by value and the final image goes
		// back to the free list: its checksum is all anyone reads of it,
		// and a job that pinned it would keep an image per history slot.
		j.result = out.Result
		out.Release()
		m.completed.Add(1)
		if j.tier != "" {
			break // an identical run's result: nothing was computed here
		}
		m.computed.Add(1)
		if j.frames == nil {
			// Cache tiers hold the canonical result: ResumedFrom is run
			// provenance (THIS execution started from a checkpoint), not
			// part of the content — a later cache hit was not resumed.
			cached := j.result
			cached.ResumedFrom = 0
			canonical = &cached
			m.cache.put(j.hash, cached)
			if m.spill != nil {
				// Write-behind to the disk tier. Dropping under a full spill
				// queue is safe — the entry is merely not durable yet and a
				// resubmission would recompute it.
				select {
				case m.spill <- spillReq{rec: &store.Entry{Hash: j.hash, Result: cached}, job: j.id, traceID: j.traceID}:
				default:
					m.spillDrops.Add(1)
				}
			}
		}
		m.recordKernel(j.result)
	}
	if m.store != nil {
		if j.state == JobCanceled && m.closing.Load() {
			// Shutdown-induced cancellation: leave the open record in the
			// journal so the NEXT daemon generation recovers the job. This
			// is what makes a rolling deploy (SIGTERM, graceful drain) as
			// survivable as a crash — writing "canceled" here would erase
			// the recovery set precisely when the restart is planned.
		} else {
			_ = m.store.Journal.End(j.id, string(j.state))
		}
	}
	if f := j.flight; f != nil {
		// Land the flight after the memory put, so a job arriving once
		// it is gone finds the result there. Waiters on it take
		// canonical, or retry when the run failed (nil).
		m.flightMu.Lock()
		f.result = canonical
		delete(m.flights, j.hash)
		m.flightMu.Unlock()
		close(f.done)
		j.flight = nil // the history keeps j, not its landed flight
	}
	if j.frames != nil {
		// Every terminal path must end the stream — a job canceled while
		// still queued (or drained at shutdown) has subscribers blocked in
		// HubReader.Read too.
		j.frames.Close()
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// retire records a terminal job in the bounded history, evicting the
// oldest finished jobs beyond MaxJobHistory (active jobs are never in
// doneOrder, so they are never evicted), and only then closes j.done:
// whoever Wait wakes finds the history already holding the job. Frame
// buffers go with the job record, which is what keeps a long-lived
// daemon's memory bounded. Callers must not hold j.mu (lock order is
// never j.mu → m.mu).
func (m *Manager) retire(j *job) {
	m.mu.Lock()
	m.retireLocked(j)
	m.mu.Unlock()
}

// retireLocked is retire with m.mu held.
func (m *Manager) retireLocked(j *job) {
	m.doneOrder = append(m.doneOrder, j.id)
	for len(m.doneOrder) > m.opts.MaxJobHistory {
		delete(m.jobs, m.doneOrder[0])
		m.doneOrder = m.doneOrder[1:]
	}
	close(j.done)
}
