package serve

// Distributed single-job execution: the shard executor. A sharded job is
// one kernel run split into horizontal row bands, one band ("shard") per
// cluster node. The entry node's manager becomes the coordinator (rank 0,
// via the ClusterHooks.RunSharded hook the cluster layer installs);
// every other participating node executes one rank through the
// endpoints below:
//
//	POST /v1/shard/start              begin a shard rank (StartShardRequest)
//	POST /v1/shard/halo?session=S     inject one EZMSG1 halo frame
//	POST /v1/shard/abort?session=S    abort a session (coordinator cleanup)
//
// Each rank runs the ordinary mpi_omp kernel variant against an
// mpi.NetWorld: Send to a remote rank encodes the message with the wire
// codec (mpi/wire.go) and hands it to the cluster's HaloSender, which
// POSTs it to the peer's halo endpoint; frames arriving there are
// injected into the local mailbox. The frontier-aware halo engine
// (mpi/halo.go) is shared verbatim with the in-process --mpirun path, so
// a sharded run is byte-identical to a single-node run of the same
// config — and is cached under the same canonical hash.
//
// Failure semantics: a dead or partitioned peer surfaces as a transport
// error (immediately), or as a send or receive timeout (within
// Options.HaloTimeout); either cancels the session with an
// mpi.ErrPeerLost cause, which the executor maps to ErrShardFailed. The
// coordinator's job fails with ErrorKind "shard_failed", a typed signal
// clients use to resubmit the job unsharded. ErrShardFailed deliberately
// does not wrap context.Canceled: Manager.finish must classify a shard
// failure as JobFailed, not JobCanceled.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/mpi"
)

// Shard errors.
var (
	// ErrShardFailed marks a distributed job aborted because a shard rank
	// died, partitioned, or timed out. Clients detect it via
	// JobStatus.ErrorKind == ErrorKindShardFailed and resubmit unsharded.
	ErrShardFailed = errors.New("serve: shard execution failed")
	// ErrUnknownShard is returned for halo/abort calls naming no live
	// session (HTTP 404 — the sender retries until its halo timeout,
	// which also absorbs a start-ordering race between remote ranks; the
	// coordinator's rank 0 is registered before any of them starts).
	ErrUnknownShard = errors.New("serve: unknown shard session")
	// ErrShardExists rejects a duplicate session id (HTTP 409).
	ErrShardExists = errors.New("serve: shard session already exists")
)

// ErrorKindShardFailed is the JobStatus.ErrorKind of ErrShardFailed jobs.
const ErrorKindShardFailed = "shard_failed"

// haloSpanSample bounds how many per-iteration halo spans one shard run
// records: enough to see the exchange cadence in a trace, few enough that
// a 10k-iteration job cannot flood the 4096-span ring.
const haloSpanSample = 16

// StartShardRequest is the POST /v1/shard/start body: everything one
// rank needs to join a distributed session.
type StartShardRequest struct {
	// Session identifies the distributed session cluster-wide (the
	// coordinator uses its prefixed job id — unique, and legible in logs).
	Session string `json:"session"`
	// Job and TraceID tie the shard's spans into the coordinating job's
	// trace tree.
	Job     string `json:"job,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Config is the normalized job config (the coordinator's
	// canonicalization is authoritative, as with proxied submissions).
	Config core.Config `json:"config"`
	// Frames makes every rank run the per-iteration display path (the
	// graphical refresh is a collective gather, so all ranks must take it
	// in lockstep); only rank 0 actually emits frames.
	Frames bool `json:"frames,omitempty"`
	Rank   int  `json:"rank"`
	Shards int  `json:"shards"`
	// Peers maps rank -> base URL. Peers[Rank] is this node (unused).
	Peers []string `json:"peers"`
}

func (r *StartShardRequest) validate() error {
	if r.Session == "" {
		return fmt.Errorf("serve: shard request without a session id")
	}
	if r.Shards < 2 || r.Rank < 0 || r.Rank >= r.Shards {
		return fmt.Errorf("serve: invalid shard rank %d of %d", r.Rank, r.Shards)
	}
	if len(r.Peers) != r.Shards {
		return fmt.Errorf("serve: %d peers for %d shards", len(r.Peers), r.Shards)
	}
	return nil
}

// ShardJob describes a sharded submission handed to the coordinator hook
// (ClusterHooks.RunSharded): the job's identity plus the live observers the
// manager would have wired into a local run.
type ShardJob struct {
	ID         string
	TraceID    string
	Config     core.Config
	Shards     int
	Frames     bool
	Sink       gfx.FrameSink // non-nil for frames jobs (the job's stream hub)
	OnActivity func(core.IterActivity)
}

// HaloSender sends one EZMSG1 frame to rank dst of req's session. ctx
// carries the send's deadline (Options.HaloTimeout) and is canceled with
// the session. The cluster layer supplies it: the wire (endpoint,
// headers, retry while the peer's session is not registered yet) is its.
type HaloSender func(ctx context.Context, req *StartShardRequest, dst int, frame []byte) error

// ShardRunner coordinates one sharded job end to end and returns rank
// 0's output with sharded true. When the cluster cannot shard the job
// (a declined plan, or a rank that failed to start) it returns sharded
// false having computed nothing, and the manager runs the job on its
// plain path. The cluster layer installs one as ClusterHooks.RunSharded;
// without it, sharded submissions simply run locally.
type ShardRunner func(ctx context.Context, job ShardJob) (out *core.RunOutput, sharded bool, err error)

// ShardRank is one rank of a distributed session, registered on this
// node: halo frames addressed to it are buffered in its mailbox from the
// moment PrepareShard returns, whether or not it runs yet. Its owner
// calls Run or Release, once.
type ShardRank struct {
	m      *Manager
	req    StartShardRequest
	nw     *mpi.NetWorld
	ctx    context.Context // the session's; canceled with a cause
	cancel context.CancelCauseFunc
}

// StartShard begins executing one remote rank of a distributed session
// asynchronously: the session is registered (so halo frames can be
// injected) before StartShard returns, and the rank runs on its own
// goroutine until completion or abort. send carries its outgoing halo
// frames.
func (m *Manager) StartShard(req StartShardRequest, send HaloSender) error {
	r, err := m.PrepareShard(m.baseCtx, req, send)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		r.Release()
		return ErrClosed
	}
	m.shardWg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.shardWg.Done()
		// Remote ranks contribute their band through the collectives; the
		// output object is rank 0's concern. Errors land in the span.
		out, _ := r.Run(nil, nil)
		out.Release()
	}()
	return nil
}

// PrepareShard validates the request, builds the rank's NetWorld, and
// registers the session so incoming halo frames find their mailbox. The
// coordinator prepares its own rank 0 before it starts any remote rank,
// so no remote rank's first halo finds the session missing and waits out
// the sender's retry pause.
func (m *Manager) PrepareShard(ctx context.Context, req StartShardRequest, send HaloSender) (*ShardRank, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancelCause(ctx)
	// A send is bounded like a wait: a peer that neither answers nor
	// refuses fails the session within the halo timeout, and a canceled
	// session unblocks a send in flight.
	sendFrame := func(dst int, frame []byte) error {
		sendCtx, cancelSend := context.WithTimeout(sctx, m.opts.HaloTimeout)
		defer cancelSend()
		return send(sendCtx, &req, dst, frame)
	}
	nw, err := mpi.NewNetWorld(sctx, cancel, req.Shards, req.Rank,
		mpi.Config{RecvTimeout: m.opts.HaloTimeout}, sendFrame)
	if err != nil {
		cancel(context.Canceled)
		return nil, err
	}
	r := &ShardRank{m: m, req: req, nw: nw, ctx: sctx, cancel: cancel}
	m.shardMu.Lock()
	if _, ok := m.shardSessions[req.Session]; ok {
		m.shardMu.Unlock()
		cancel(context.Canceled)
		nw.Close()
		return nil, fmt.Errorf("%w: %q", ErrShardExists, req.Session)
	}
	m.shardSessions[req.Session] = r
	m.shardMu.Unlock()
	return r, nil
}

// Release unregisters the session and releases its world. Run calls it
// when the rank ends; a coordinator whose job falls back to its plain
// path before computing anything calls it instead of Run.
func (r *ShardRank) Release() {
	m := r.m
	m.shardMu.Lock()
	if m.shardSessions[r.req.Session] == r {
		delete(m.shardSessions, r.req.Session)
	}
	m.shardMu.Unlock()
	r.cancel(context.Canceled)
	r.nw.Close()
}

// Run executes the rank's band of the kernel synchronously, releases the
// session and returns the rank's output. sink and onActivity are the
// job's live observers (nil for remote ranks and eager jobs). The run's
// halo observer feeds the node counters, the halo stage histogram, and
// (sampled) halo spans; the whole rank run is one StageShard span.
func (r *ShardRank) Run(sink gfx.FrameSink, onActivity func(core.IterActivity)) (*core.RunOutput, error) {
	defer r.Release()
	m, req := r.m, r.req
	m.shardsExecuted.Add(1)

	haloSpans := 0
	opts := core.RunOptions{
		Comm:       r.nw.Comm(),
		OnActivity: onActivity,
		OnHalo: func(sent, skipped, bytes int64, d time.Duration) {
			m.halosSent.Add(sent)
			m.halosSkipped.Add(skipped)
			if haloSpans >= haloSpanSample {
				m.obs.stages[StageHalo].Observe(d.Nanoseconds())
				return
			}
			haloSpans++ // compute goroutine only: no race
			end := time.Now()
			m.span(StageHalo, req.TraceID, req.Job, end.Add(-d), end, nil)
		},
	}
	if sink != nil {
		opts.Sink = sink
	} else if req.Frames {
		// A frames job runs the per-iteration display path on EVERY rank
		// (the refresh is a collective gather); remote ranks discard the
		// frames rank 0 assembles.
		opts.Sink = gfx.Null{}
	}

	begin := time.Now()
	out, err := core.RunWith(r.ctx, req.Config, opts)
	if err != nil {
		// A session canceled because a peer was lost is a shard failure;
		// any other cancellation (client DELETE, shutdown) keeps its cause
		// so Manager.finish classifies it as canceled, not failed. The
		// cause is flattened with %v on purpose: ErrShardFailed must not
		// transitively wrap context.Canceled.
		if cause := context.Cause(r.ctx); cause != nil && errors.Is(cause, mpi.ErrPeerLost) {
			err = fmt.Errorf("%w: rank %d of session %s: %v", ErrShardFailed, req.Rank, req.Session, cause)
		}
	}
	m.span(StageShard, req.TraceID, req.Job, begin, time.Now(), err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InjectShardHalo delivers one wire frame into a session's mailbox — the
// body of POST /v1/shard/halo. ErrUnknownShard (404) tells the sender to
// retry: the session may simply not have started yet.
func (m *Manager) InjectShardHalo(session string, frame []byte) error {
	m.shardMu.Lock()
	sess := m.shardSessions[session]
	m.shardMu.Unlock()
	if sess == nil {
		return fmt.Errorf("%w: %q", ErrUnknownShard, session)
	}
	return sess.nw.Inject(frame)
}

// AbortShard cancels a session (no-op when it already finished): the
// body of POST /v1/shard/abort, which a coordinator sends its remote
// ranks when its own rank's run fails.
func (m *Manager) AbortShard(session, reason string) bool {
	m.shardMu.Lock()
	sess := m.shardSessions[session]
	m.shardMu.Unlock()
	if sess == nil {
		return false
	}
	sess.nw.Fail(fmt.Errorf("session aborted: %s", reason))
	return true
}

// ShardSessions reports the live shard-session count (tests assert it
// drains to zero).
func (m *Manager) ShardSessions() int {
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	return len(m.shardSessions)
}
