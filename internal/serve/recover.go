package serve

import (
	"context"
	"time"

	"easypap/internal/trace"
)

// recoverJournal replays the write-ahead journal: every job that was
// queued or running when the previous daemon died is re-admitted under
// its ORIGINAL id — a client that submitted before the crash keeps
// polling the same id across the restart, and keeps its original
// submission time (the journal persists it, so recovered jobs do not
// jump the queue-age ordering). Non-frames jobs are re-enqueued
// (RecoverRequeue) or marked interrupted (RecoverInterrupt); frames
// jobs re-enqueue only when the store holds a checkpoint their run can
// resume from (resumePoint, whichever job wrote it) — the runner will
// resume there and new subscribers attach at the resume keyframe — and
// are interrupted otherwise, since replaying the whole stream from zero
// for subscribers that did not survive is pure waste.
// The id sequence resumes past every journaled id so new submissions
// never collide with recovered ones.
func (m *Manager) recoverJournal() {
	recs := m.store.Journal.Recovered()
	if max := m.store.Journal.MaxID(); max > m.nextID.Load() {
		m.nextID.Store(max)
	}
	for _, rec := range recs {
		submitted := time.Now()
		if rec.Submitted > 0 {
			submitted = time.Unix(0, rec.Submitted)
		}
		j := &job{
			id:        rec.ID,
			hash:      rec.Hash,
			traceID:   trace.NewTraceID(), // pre-crash spans did not survive
			cfg:       rec.Config,
			state:     JobQueued,
			recovered: true,
			submitted: submitted,
			done:      make(chan struct{}),
		}
		requeue := m.opts.Recover != RecoverInterrupt
		if requeue && rec.Frames {
			if _, s, _ := m.resumePoint(j); s != nil {
				j.frames = NewFrameHub(HubOptions{Stats: &m.frameStats})
			} else {
				requeue = false
			}
		}
		m.mu.Lock()
		if requeue {
			j.ctx, j.cancel = context.WithCancel(m.baseCtx)
			select {
			case m.queue <- j:
				m.jobs[j.id] = j
				m.mu.Unlock()
				m.submitted.Add(1)
				m.recovered.Add(1)
				continue
			default:
				// Recovery outgrew the queue; fall through to interrupt so
				// the journal does not replay this job forever.
				j.cancel()
				j.ctx, j.cancel = nil, nil
			}
		}
		now := time.Now()
		j.state = JobInterrupted
		j.errMsg = "daemon restarted while the job was queued or running"
		j.started, j.finished = now, now
		m.jobs[j.id] = j
		m.retireLocked(j)
		m.mu.Unlock()
		m.submitted.Add(1)
		m.interrupted.Add(1)
		_ = m.store.Journal.End(j.id, string(JobInterrupted))
	}
}
