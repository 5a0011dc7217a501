// Package serve is the compute-service subsystem behind easypapd: it
// turns the one-shot core.Run of the paper's CLI workflow into a
// multi-tenant job service. A Manager owns
//
//   - a bounded submission queue with admission control (submissions
//     beyond the queue depth are rejected, not buffered — the McKenney
//     discipline for a shared backend),
//   - a fixed team of job runners,
//   - a warm-pool set (internal: poolSet) so jobs lease reusable
//     sched.Pools instead of building their own,
//   - a two-tier result cache keyed by core.Config.Hash — an in-memory
//     LRU over an optional disk-backed content-addressed store
//     (internal/serve/store) that survives restarts,
//   - a write-ahead job journal (same store) so a crashed daemon's
//     queued and running jobs are re-enqueued, or marked interrupted,
//     on the next boot,
//   - iteration-prefix checkpointing (DESIGN.md §14): with
//     Options.SnapshotEvery the run loop snapshots codec-capable kernel
//     state at cadence boundaries, keyed by Config.PrefixHash (the
//     config hash minus the iteration count); any later submission of
//     the same prefix — deeper sweep step, crash-recovered job,
//     checkpointed frames job — resumes from the deepest stored
//     snapshot instead of recomputing the shared iterations,
//   - per-job cancellation threaded through core.RunContext down to the
//     iteration loop and mpi.Recv.
//
// The HTTP layer in http.go exposes it as the /v1 API; internal/serve/client
// is the Go client, which also plugs into expt.Sweep as a remote backend.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/sched"
	"easypap/internal/serve/store"
	"easypap/internal/trace"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned by Submit when admission control rejects
	// the job (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full, submission rejected")
	// ErrUnknownJob is returned for ids that do not exist (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrNoFrames is returned when streaming is requested for a job that
	// was not submitted with frames enabled (HTTP 409).
	ErrNoFrames = errors.New("serve: job was not submitted with frames enabled")
	// ErrClosed is returned by Submit after the manager shut down.
	ErrClosed = errors.New("serve: manager closed")
	// ErrNoStore is returned by PutEntry when the manager has no
	// persistence layer to adopt the entry into (HTTP 501 in cluster
	// mode — the pushing peer skips this node, it does not fail over).
	ErrNoStore = errors.New("serve: manager has no disk store")
)

// JobState is the lifecycle of a submission.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobInterrupted is the typed status of a job that was queued or
	// running when the daemon died and was not automatically re-enqueued
	// on restart (frames jobs — their subscribers are gone — or any job
	// under RecoverInterrupt policy, or recovery overflowing the queue).
	// Clients treat it as "resubmit me": expt sweeps running through
	// serve/client resubmit interrupted jobs automatically.
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled || s == JobInterrupted
}

// Options tunes a Manager. The zero value is a sane single-node setup.
type Options struct {
	// QueueDepth bounds how many jobs may wait for a runner (default 64).
	// Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// Workers is the number of concurrent job runners (default
	// GOMAXPROCS). Each running job additionally owns its leased pool's
	// worker team, so on a small machine 1–2 runners is plenty.
	Workers int
	// CacheCapacity bounds the result cache in entries (default 128).
	CacheCapacity int
	// MaxIdlePools bounds how many warm pools are kept per thread count
	// (default 4). Zero disables warm reuse: every job builds and closes
	// its own pool, which is what the serving benchmark compares against.
	MaxIdlePools int
	// DisableWarmPools turns pool reuse off even with a nonzero
	// MaxIdlePools (the cold baseline of BenchmarkServe*ColdPool).
	DisableWarmPools bool
	// RecvTimeout bounds the MPI receive watchdog for distributed jobs
	// (zero keeps mpi.DefaultRecvTimeout).
	RecvTimeout time.Duration
	// HaloTimeout bounds how long a shard rank of a distributed job waits
	// for a neighbor's halo message (or for a peer's session to appear)
	// before declaring the peer lost and aborting the session (default
	// 2s). It is the upper bound on how long a shard-node death can stall
	// the coordinating job.
	HaloTimeout time.Duration
	// MaxJobHistory bounds how many *terminal* job records (and their
	// frame buffers) are kept for status queries (default 4096). Oldest
	// finished jobs are forgotten first; active jobs are never evicted.
	MaxJobHistory int
	// Store, when non-nil, adds the persistence layer: a disk-backed
	// second cache tier under the in-memory LRU (looked up on memory
	// miss, filled by an async spiller on job completion) and a
	// write-ahead job journal whose open jobs are recovered — under
	// their original ids — when the manager starts. The caller owns the
	// store and closes it after Close.
	Store *store.Store
	// Recover selects what happens to journaled in-flight jobs on
	// startup: RecoverRequeue (the default) re-enqueues them,
	// RecoverInterrupt marks them with the terminal JobInterrupted
	// status and lets clients resubmit. Frames jobs without a journaled
	// checkpoint are always interrupted — their stream subscribers did
	// not survive the restart and the replay would start from zero;
	// checkpointed frames jobs re-enqueue and resume, with new
	// subscribers attaching at the resume keyframe.
	Recover RecoverPolicy
	// SnapshotEvery, when positive, checkpoints every running
	// single-process job of a codec-capable kernel at each iteration
	// divisible by this value (flag -snapshot-every; 0 = off, the exact
	// pre-checkpointing behavior). Snapshots land in the Store keyed by
	// (Config.PrefixHash, iter); submissions resume from the deepest
	// stored checkpoint below their target whenever one exists —
	// resumption does not require SnapshotEvery, only the snapshots.
	// Requires Store.
	SnapshotEvery int
}

// RecoverPolicy selects the restart fate of journaled in-flight jobs.
type RecoverPolicy string

const (
	RecoverRequeue   RecoverPolicy = "requeue"
	RecoverInterrupt RecoverPolicy = "interrupt"
)

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 128
	}
	if o.MaxIdlePools <= 0 {
		o.MaxIdlePools = 4
	}
	if o.DisableWarmPools {
		o.MaxIdlePools = 0
	}
	if o.MaxJobHistory <= 0 {
		o.MaxJobHistory = 4096
	}
	if o.HaloTimeout <= 0 {
		o.HaloTimeout = 2 * time.Second
	}
	return o
}

// JobStatus is the externally visible snapshot of a job — the JSON body
// of GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Cached bool     `json:"cached,omitempty"` // result came from a cache tier, no recompute
	// DiskHit marks a cached result that was served from the disk tier
	// (a restarted daemon's warm cache) rather than the in-memory LRU.
	DiskHit bool `json:"disk_hit,omitempty"`
	// RemoteHit marks a cached result fetched from a replica's cache
	// (cluster mode with replication): both local tiers missed, but a
	// ring peer held the entry, so no recompute happened anywhere.
	RemoteHit bool `json:"remote_hit,omitempty"`
	// Recovered marks a job re-enqueued (or interrupted) from the
	// write-ahead journal after a daemon restart.
	Recovered bool   `json:"recovered,omitempty"`
	Frames    bool   `json:"frames,omitempty"` // job streams frames
	Hash      string `json:"hash"`             // canonical config hash (the cache key)
	// TraceID correlates this job's service spans across every node it
	// touched (GET /v1/trace/{id}); minted at submission or inherited
	// from the X-Easypap-Trace header on proxied hops.
	TraceID string `json:"trace_id,omitempty"`

	Config core.Config  `json:"config"`           // normalized
	Result *core.Result `json:"result,omitempty"` // present once done
	Error  string       `json:"error,omitempty"`  // present when failed/canceled
	// ErrorKind is a machine-readable failure class. Currently the only
	// value is ErrorKindShardFailed ("shard_failed"): a distributed run
	// lost a shard node, and the client should resubmit unsharded rather
	// than give up.
	ErrorKind string `json:"error_kind,omitempty"`
	// Shards is the shard count the job actually ran with (0 or 1 for a
	// plain single-node run).
	Shards int `json:"shards,omitempty"`

	// Activity is the latest tile-frontier report of a lazy kernel job —
	// updated live while the job runs, so polling GET /v1/jobs/{id} shows
	// the frontier collapsing. Absent for eager variants. The full
	// per-iteration series lands in Result.Activity once done.
	Activity *ActivityStatus `json:"activity,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	QueuedNS    int64     `json:"queued_ns,omitempty"` // time spent waiting for a runner
	RanNS       int64     `json:"ran_ns,omitempty"`    // time spent executing
}

// ActivityStatus is the live frontier snapshot of a lazy job: at
// iteration Iter, Active of Total owned tiles were dispatched.
type ActivityStatus struct {
	Iter   int     `json:"iter"`
	Active int     `json:"active_tiles"`
	Total  int     `json:"total_tiles"`
	Ratio  float64 `json:"ratio"` // Active / Total
}

// job is the internal record.
type job struct {
	id      string
	hash    string
	traceID string      // correlates service spans across nodes
	cfg     core.Config // normalized, scrubbed
	frames  *FrameHub   // nil unless the submission requested frames
	shards  int         // requested shard count (0/1: plain local run)
	cancel  context.CancelFunc
	ctx     context.Context
	done    chan struct{} // closed by retire, once the job is terminal and in the history

	mu        sync.Mutex
	state     JobState
	cached    bool
	diskHit   bool
	remoteHit bool
	recovered bool
	result    *core.Result
	errMsg    string
	errKind   string          // machine-readable failure class (ErrorKind* consts)
	activity  *ActivityStatus // latest lazy-frontier report (nil for eager)
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// snapshot builds the external view under the job lock.
func (j *job) snapshot() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &JobStatus{
		ID: j.id, State: j.state, Cached: j.cached, DiskHit: j.diskHit,
		RemoteHit: j.remoteHit, Recovered: j.recovered, Frames: j.frames != nil,
		Hash: j.hash, TraceID: j.traceID, Config: j.cfg, Result: j.result, Error: j.errMsg,
		ErrorKind: j.errKind, Shards: j.shards, Activity: j.activity, SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		s.QueuedNS = j.started.Sub(j.submitted).Nanoseconds()
		if !j.finished.IsZero() {
			s.RanNS = j.finished.Sub(j.started).Nanoseconds()
		}
	}
	return s
}

// kernelStats accumulates per-kernel serving throughput.
type kernelStats struct {
	jobs       int64
	iterations int64
	wallNS     int64
	dispatched int64 // lazy frontier tiles actually computed
	skipped    int64 // tiles the frontier let the kernel skip
}

// Manager is the job service. Create with NewManager, shut down with
// Close. All methods are safe for concurrent use.
type Manager struct {
	opts  Options
	start time.Time

	baseCtx context.Context
	stopAll context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	mu        sync.Mutex // guards jobs map, doneOrder and closed
	jobs      map[string]*job
	doneOrder []string // terminal job ids, oldest first (history eviction)
	closed    bool
	closing   atomic.Bool // set by Close before jobs are drained

	cache *resultCache
	pools *poolSet

	store   *store.Store  // nil without persistence
	spill   chan spillReq // completion → disk write-behind queue
	spillWg sync.WaitGroup

	// Cluster hooks, set (before traffic, atomically because recovered
	// jobs may already be completing) by the cluster layer when
	// replication is on: spillHook observes every durably spilled entry
	// (the replication push point), entrySource is the last cache tier —
	// consulted after memory and disk both miss, before a recompute
	// (the cluster layer fetches from ring replicas there). Both carry
	// the trace id so replication pushes and replica fetches land in the
	// originating job's span tree.
	spillHook   atomic.Pointer[func(*store.Entry, string)]
	snapHook    atomic.Pointer[func(*store.Snapshot, string)]
	entrySource atomic.Pointer[func(hash, traceID string) *store.Entry]

	// Distributed single-job execution (shard.go): the coordinator hook
	// the cluster layer installs, and the registry of shard ranks this
	// node is currently executing for remote coordinators.
	shardRunner   atomic.Pointer[ShardRunner]
	shardMu       sync.Mutex
	shardSessions map[string]*shardSession
	shardWg       sync.WaitGroup

	// Observability: the metrics registry + stage histograms behind
	// GET /metrics, and the service-span ring behind GET /v1/trace.
	obs      *managerObs
	nodeName atomic.Value // string; span node label (cluster node id)

	nextID      atomic.Int64
	running     atomic.Int64
	submitted   atomic.Int64
	completed   atomic.Int64
	computed    atomic.Int64 // jobs that actually ran a kernel (no cache tier answered)
	failed      atomic.Int64
	canceled    atomic.Int64
	rejected    atomic.Int64
	diskHits    atomic.Int64
	diskMisses  atomic.Int64
	remoteHits  atomic.Int64 // entrySource (replica fetch) answered after both local tiers missed
	spills      atomic.Int64
	spillErrs   atomic.Int64
	spillDrops  atomic.Int64
	recovered   atomic.Int64 // journaled jobs re-enqueued on startup
	interrupted atomic.Int64 // journaled jobs marked JobInterrupted on startup

	// Checkpoint counters: snapsWritten = snapshots durably persisted,
	// snapsResumed = jobs that started from a stored checkpoint instead
	// of iteration zero.
	snapsWritten atomic.Int64
	snapsResumed atomic.Int64

	// Shard counters: coordinated = sharded jobs this node drove as rank
	// 0; executed = shard ranks run here (local and remote sessions);
	// halosSent/halosSkipped = boundary exchanges performed vs. proven
	// unnecessary by the frontier skip rule.
	jobsCoordinated atomic.Int64
	shardsExecuted  atomic.Int64
	halosSent       atomic.Int64
	halosSkipped    atomic.Int64

	// frameStats aggregates every job hub's subscriber/drop/byte counters
	// (one struct for the whole manager; hubs share it).
	frameStats HubStats

	kmu     sync.Mutex
	kernels map[string]*kernelStats
}

// NewManager starts the runner team and returns a ready manager.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		opts:    opts,
		start:   time.Now(),
		queue:   make(chan *job, opts.QueueDepth),
		jobs:    make(map[string]*job),
		cache:   newResultCache(opts.CacheCapacity),
		pools:   newPoolSet(opts.MaxIdlePools),
		kernels: make(map[string]*kernelStats),

		shardSessions: make(map[string]*shardSession),
	}
	m.obs = newManagerObs(m)
	m.baseCtx, m.stopAll = context.WithCancel(context.Background())
	if opts.Store != nil {
		m.store = opts.Store
		m.spill = make(chan spillReq, 256)
		m.spillWg.Add(1)
		go m.spiller()
		m.recoverJournal()
	}
	m.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go m.runner()
	}
	return m
}

// spillReq is one completed result — or one mid-run checkpoint — on its
// way to the disk tier. Exactly one of (hash, result) and snap is
// populated.
type spillReq struct {
	hash    string
	job     string
	traceID string
	result  core.Result
	snap    *store.Snapshot // checkpoint write (hash/result unused)
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
		if req.snap != nil {
			// Checkpoint write-behind: persist the snapshot, then journal
			// "job has a checkpoint at iter" so a crash resumes it there.
			// A snap error for an already-finished job (its open record is
			// gone) is harmless — the snapshot itself is still usable by
			// any future submission sharing the iteration prefix.
			err := m.store.Cache.PutSnapshot(req.snap)
			if err == nil && req.job != "" {
				_ = m.store.Journal.Snap(req.job, req.snap.Iter)
			}
			m.span(m.obs.snapshot, req.traceID, req.job, StageSnapshot, begin, time.Now(), err)
			if err != nil {
				m.spillErrs.Add(1)
				continue
			}
			m.snapsWritten.Add(1)
			if hook := m.snapHook.Load(); hook != nil {
				// Snapshot replication rides the spill exactly like entries:
				// durable locally first, then pushed to the ring successors.
				(*hook)(req.snap, req.traceID)
			}
			continue
		}
		e := &store.Entry{Hash: req.hash, Result: req.result}
		err := m.store.Cache.Put(e)
		m.span(m.obs.spill, req.traceID, req.job, StageSpill, begin, time.Now(), err)
		if err != nil {
			m.spillErrs.Add(1)
			continue
		}
		m.spills.Add(1)
		if hook := m.spillHook.Load(); hook != nil {
			// Replication rides the spill: the entry is durable locally,
			// now the cluster layer pushes it to the ring successors.
			(*hook)(e, req.traceID)
		}
	}
}

// SetSpillHook registers a function invoked with every entry after it
// is durably written to the disk tier — the cluster layer's replication
// push point. The second argument is the trace id of the job whose
// completion triggered the spill, so replication pushes join its span
// tree. Must be set before the hooked behavior is relied on; safe to
// set concurrently with running jobs.
func (m *Manager) SetSpillHook(f func(*store.Entry, string)) {
	if f == nil {
		m.spillHook.Store(nil)
		return
	}
	m.spillHook.Store(&f)
}

// SetSnapshotHook registers the checkpoint counterpart of SetSpillHook:
// invoked with every snapshot after it is durably written, so the
// cluster layer replicates checkpoints alongside results — a node death
// then costs at most SnapshotEvery iterations of recompute, not the
// whole prefix.
func (m *Manager) SetSnapshotHook(f func(*store.Snapshot, string)) {
	if f == nil {
		m.snapHook.Store(nil)
		return
	}
	m.snapHook.Store(&f)
}

// SetEntrySource registers the last-resort cache tier: consulted with a
// config hash after both the memory and disk tiers miss, before the job
// is queued for recompute. A non-nil return is adopted (promoted to the
// local tiers) and served as a cached result. The cluster layer uses
// this to read through to ring replicas, so an entry whose owner died
// is a remote fetch, not a recompute. traceID is the fetching job's
// trace id, propagated to the replica via X-Easypap-Trace.
func (m *Manager) SetEntrySource(f func(hash, traceID string) *store.Entry) {
	if f == nil {
		m.entrySource.Store(nil)
		return
	}
	m.entrySource.Store(&f)
}

// recoverJournal replays the write-ahead journal: every job that was
// queued or running when the previous daemon died is re-admitted under
// its ORIGINAL id — a client that submitted before the crash keeps
// polling the same id across the restart, and keeps its original
// submission time (the journal persists it, so recovered jobs do not
// jump the queue-age ordering). Non-frames jobs are re-enqueued
// (RecoverRequeue) or marked interrupted (RecoverInterrupt); frames
// jobs re-enqueue only when a checkpoint was journaled — the runner
// will resume from it and new subscribers attach at the resume
// keyframe — and are interrupted otherwise, since replaying the whole
// stream from zero for subscribers that did not survive is pure waste.
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
		requeue := m.opts.Recover != RecoverInterrupt && (!rec.Frames || rec.SnapIter > 0)
		if requeue && rec.Frames {
			j.frames = NewFrameHub(HubOptions{Stats: &m.frameStats})
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

// NormalizeSubmission applies the daemon's submission discipline to a
// client config and returns the normalized config plus its canonical
// hash — the cache key, and the routing key of cluster mode. The daemon
// never touches the server filesystem on behalf of a client: output and
// trace paths are scrubbed, performance mode is forced, and frames (when
// requested) stream from memory. Every layer that needs to know where a
// submission lands (Manager.Submit, the cluster router, the hash-aware
// multi-endpoint client) must use this one function, or identical
// submissions would route and cache under different keys.
func NormalizeSubmission(cfg core.Config, wantFrames bool) (core.Config, string, error) {
	cfg.OutputDir = ""
	cfg.TracePath = ""
	cfg.NoDisplay = true
	if !wantFrames {
		// Monitoring/heat-map instrumentation is excluded from the config
		// hash (it never changes what is computed), so a cacheable run must
		// not carry its timing overhead either — otherwise an instrumented
		// submission would poison the cache entry its uninstrumented twin
		// hits. Frames jobs keep it: it enables the tiling/activity windows
		// in the live stream, and they bypass the cache anyway.
		cfg.Monitoring = false
		cfg.HeatMode = false
	}
	cfg, err := cfg.Normalize()
	if err != nil {
		return cfg, "", err
	}
	hash, err := cfg.Hash()
	if err != nil {
		return cfg, "", err
	}
	return cfg, hash, nil
}

// Submit normalizes and admits a job. Identical resubmissions (same
// canonical config hash) of non-frames jobs are answered from the result
// cache without recomputation: the returned job is already done with
// Cached set. Jobs that stream frames bypass the cache — their value is
// the live stream, and display-mode timing must not pollute cached
// performance results.
func (m *Manager) Submit(cfg core.Config, wantFrames bool) (*JobStatus, error) {
	return m.SubmitTraced(cfg, wantFrames, "")
}

// SubmitTraced is Submit with an inherited trace id — the entry point
// for proxied cluster hops, where the entry node already minted the id
// and forwarded it via X-Easypap-Trace. An empty traceID mints a fresh
// one, so every job carries exactly one id for its whole cluster life.
func (m *Manager) SubmitTraced(cfg core.Config, wantFrames bool, traceID string) (*JobStatus, error) {
	return m.SubmitShards(cfg, wantFrames, traceID, 0)
}

// SubmitShards is SubmitTraced with a requested shard count: when shards
// > 1 and a coordinator is installed (SetShardRunner — cluster mode),
// the job runs distributed across the cluster as one kernel execution
// split into row bands. Without a coordinator, or when the cluster
// cannot shard the job (no healthy peers, non-mpi variant), it runs as
// a plain local job — sharding is an execution strategy, never part of
// the cache key, so sharded and unsharded runs of one config hit the
// same cache entry.
func (m *Manager) SubmitShards(cfg core.Config, wantFrames bool, traceID string, shards int) (*JobStatus, error) {
	admitStart := time.Now()
	cfg, hash, err := NormalizeSubmission(cfg, wantFrames)
	if err != nil {
		return nil, err
	}
	if traceID == "" {
		traceID = trace.NewTraceID()
	}

	j := &job{
		hash:      hash,
		traceID:   traceID,
		cfg:       cfg,
		shards:    shards,
		state:     JobQueued,
		submitted: admitStart,
		done:      make(chan struct{}),
	}
	if wantFrames {
		j.frames = NewFrameHub(HubOptions{Stats: &m.frameStats})
	}
	// The admit span closes on every exit path: cache-answered, rejected,
	// or enqueued. Its histogram is the admission-wait distribution.
	defer func() { m.span(m.obs.admit, traceID, j.id, StageAdmit, admitStart, time.Now(), nil) }()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	j.id = fmt.Sprintf("j-%06d", m.nextID.Add(1))

	if !wantFrames {
		lookup := time.Now()
		r, ok := m.cache.get(hash)
		m.obs.cacheMem.Observe(time.Since(lookup).Nanoseconds())
		if ok {
			m.finishCachedLocked(j, r, tierMemory)
			m.mu.Unlock()
			// Histogram already observed above; record the span only.
			m.span(nil, traceID, j.id, StageCacheMem, lookup, time.Now(), nil)
			return j.snapshot(), nil
		}
	}
	m.mu.Unlock()

	// Memory missed: try the disk tier before paying a recompute. The
	// read happens outside m.mu (it is file I/O) and is deduplicated
	// per hash inside the store, so a herd of identical submissions
	// costs one read.
	if !wantFrames && m.store != nil {
		lookup := time.Now()
		ent, ok := m.store.Cache.Get(hash)
		m.span(m.obs.cacheDisk, traceID, j.id, StageCacheDisk, lookup, time.Now(), nil)
		if ok {
			m.diskHits.Add(1)
			m.cache.put(hash, ent.Result) // promote to the memory tier
			return m.finishCached(j, ent.Result, tierDisk)
		}
		m.diskMisses.Add(1)
	}

	// Both local tiers missed: ask the entry source (cluster replicas)
	// before paying a recompute. Network I/O, so outside every lock;
	// the fetched entry is adopted into both local tiers — this node is
	// answering for the hash, so it should own a copy from now on.
	if !wantFrames {
		if src := m.entrySource.Load(); src != nil {
			fetch := time.Now()
			ent := (*src)(hash, traceID)
			m.span(m.obs.replicaFetch, traceID, j.id, StageReplicaFetch, fetch, time.Now(), nil)
			if ent != nil && ent.Hash == hash {
				m.remoteHits.Add(1)
				m.cache.put(hash, ent.Result)
				if m.store != nil {
					_ = m.store.Cache.Put(ent)
				}
				return m.finishCached(j, ent.Result, tierRemote)
			}
		}
	}

	// Write-ahead: the journal records the job before it can run, so a
	// crash at any later point recovers it. (Rejection below writes the
	// matching terminal record.) Shed load BEFORE touching the journal:
	// under sustained overload — when rejections fire at full rate — the
	// admission-control path must stay free of disk I/O. The check is
	// advisory (the queue may fill right after), so the enqueue below
	// still handles the race with a journaled reject.
	if m.store != nil {
		if len(m.queue) == cap(m.queue) {
			m.rejected.Add(1)
			return nil, ErrQueueFull
		}
		_ = m.store.Journal.Begin(j.id, hash, wantFrames, cfg, admitStart.UnixNano())
	}

	j.ctx, j.cancel = context.WithCancel(m.baseCtx)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.cancel()
		if m.store != nil {
			_ = m.store.Journal.End(j.id, string(JobCanceled))
		}
		return nil, ErrClosed
	}
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.submitted.Add(1)
		m.mu.Unlock()
		return j.snapshot(), nil
	default:
		m.mu.Unlock()
		// Release the child context immediately: a rejected submission must
		// not stay registered with baseCtx (under sustained overload —
		// exactly when rejections fire — that would grow without bound).
		j.cancel()
		if m.store != nil {
			_ = m.store.Journal.End(j.id, "rejected")
		}
		m.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// cacheTier names which tier answered a cached submission.
type cacheTier int

const (
	tierMemory cacheTier = iota
	tierDisk
	tierRemote
)

// finishCached completes a submission from a non-memory cache tier,
// taking m.mu itself and handling a concurrent Close.
func (m *Manager) finishCached(j *job, r core.Result, tier cacheTier) (*JobStatus, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.finishCachedLocked(j, r, tier)
	m.mu.Unlock()
	return j.snapshot(), nil
}

// finishCachedLocked completes a submission straight from a cache tier.
// Caller holds m.mu; the job was never enqueued, so no journal record
// exists for it.
func (m *Manager) finishCachedLocked(j *job, r core.Result, tier cacheTier) {
	now := time.Now()
	j.state = JobDone
	j.cached = true
	j.diskHit = tier == tierDisk
	j.remoteHit = tier == tierRemote
	j.result = &r
	j.started, j.finished = now, now
	m.jobs[j.id] = j
	m.retireLocked(j)
	m.submitted.Add(1)
	m.completed.Add(1)
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
	m.span(m.obs.queue, j.traceID, j.id, StageQueue, j.submitted, j.started, nil)

	m.running.Add(1)
	defer m.running.Add(-1)

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
		m.span(m.obs.lease, j.traceID, j.id, StageLease, leaseStart, time.Now(), nil)
		opts.Pool = leased
	}
	if j.frames != nil {
		opts.Sink = newHubSink(j.frames)
	}

	computeStart := time.Now()
	var out *core.RunOutput
	var err error
	if hook := m.shardRunner.Load(); hook != nil && j.shards > 1 {
		// Distributed execution: the coordinator hook splits the job into
		// row bands across the cluster and returns rank 0's stitched
		// output. The leased pool (if any) goes unused — each rank builds
		// its own team — but mpi variants carry MPIRanks >= 2, so the
		// warm-lease branch above already skipped them.
		m.jobsCoordinated.Add(1)
		out, err = (*hook)(j.ctx, ShardJob{
			ID: j.id, TraceID: j.traceID, Config: j.cfg, Shards: j.shards,
			Frames: j.frames != nil, Sink: opts.Sink, OnActivity: opts.OnActivity,
		})
	} else {
		out, err = core.RunWith(j.ctx, j.cfg, opts)
	}
	m.span(m.obs.compute, j.traceID, j.id, StageCompute, computeStart, time.Now(), err)

	if leased != nil {
		m.pools.release(leased)
	}

	j.mu.Lock()
	m.finish(j, out, err)
	j.mu.Unlock()
	m.retire(j)
}

// setupCheckpointing wires iteration-prefix checkpointing into a run:
// resume from the deepest stored snapshot below the job's target (the
// shared prefix is never recomputed), and — when SnapshotEvery is on —
// hand periodic state snapshots to the write-behind spiller. Only
// single-process runs of codec-capable kernels participate; everything
// else runs exactly as before. Resumption needs no SnapshotEvery: the
// snapshots may have been written by an earlier daemon generation or
// pushed by a ring peer.
func (m *Manager) setupCheckpointing(j *job, opts *core.RunOptions) {
	if m.store == nil || j.shards > 1 || j.cfg.MPIRanks > 1 {
		return
	}
	k, err := core.Lookup(j.cfg.Kernel)
	if err != nil || k.Codec == nil {
		return
	}
	prefixHash, err := j.cfg.PrefixHash()
	if err != nil {
		return
	}
	// Deepest usable snapshot strictly below the target: a snapshot AT
	// the target would be the finished result, and that lives in the
	// entry cache, which Submit already consulted.
	lookup := time.Now()
	if s, ok := m.store.Cache.DeepestSnapshot(prefixHash, j.cfg.Iterations-1); ok {
		opts.Resume = &core.ResumeState{Iter: s.Iter, State: s.State}
		m.snapsResumed.Add(1)
		m.span(m.obs.resume, j.traceID, j.id, StageResume, lookup, time.Now(), nil)
	}
	if m.opts.SnapshotEvery > 0 {
		opts.SnapshotEvery = m.opts.SnapshotEvery
		opts.OnSnapshot = func(iter int, state []byte) {
			// Same shed rule as result spills: dropping a checkpoint under
			// a full spill queue only costs recompute, never correctness.
			select {
			case m.spill <- spillReq{job: j.id, traceID: j.traceID,
				snap: &store.Snapshot{PrefixHash: prefixHash, Iter: iter, State: state}}:
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
		j.result = &out.Result
		m.completed.Add(1)
		m.computed.Add(1)
		if j.frames == nil {
			// Cache tiers hold the canonical result: ResumedFrom is run
			// provenance (THIS execution started from a checkpoint), not
			// part of the content — a later cache hit was not resumed.
			cached := out.Result
			cached.ResumedFrom = 0
			m.cache.put(j.hash, cached)
			if m.spill != nil {
				// Write-behind to the disk tier. Dropping under a full spill
				// queue is safe — the entry is merely not durable yet and a
				// resubmission would recompute it.
				select {
				case m.spill <- spillReq{hash: j.hash, job: j.id, traceID: j.traceID, result: cached}:
				default:
					m.spillDrops.Add(1)
				}
			}
		}
		m.recordKernel(out.Result)
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

// recordKernel accumulates per-kernel throughput counters.
func (m *Manager) recordKernel(r core.Result) {
	m.kmu.Lock()
	defer m.kmu.Unlock()
	ks := m.kernels[r.Config.Kernel]
	if ks == nil {
		ks = &kernelStats{}
		m.kernels[r.Config.Kernel] = ks
	}
	ks.jobs++
	// Only iterations computed THIS run count toward throughput: a
	// resumed job inherited its prefix from a snapshot, and crediting it
	// with the full depth would let iters_per_sec exceed the hardware.
	ks.iterations += int64(r.Iterations - r.ResumedFrom)
	ks.wallNS += r.WallTime.Nanoseconds()
	for _, a := range r.Activity {
		ks.dispatched += int64(a.Active)
		ks.skipped += int64(a.Total - a.Active)
	}
}

// lookup finds a job by id.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Get returns the current status of a job.
func (m *Manager) Get(id string) (*JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.snapshot(), nil
}

// Cancel requests cancellation and returns the job's status immediately;
// a running job transitions to canceled as soon as its iteration loop
// observes the context (Wait on the job to observe the transition).
func (m *Manager) Cancel(id string) (*JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	if queued {
		// A queued job has no runner to observe the context yet; finish it
		// here so DELETE is immediate. The runner skips non-queued jobs.
		j.mu.Lock()
		finished := j.state == JobQueued
		if finished {
			m.finish(j, nil, context.Canceled)
		}
		j.mu.Unlock()
		if finished {
			m.retire(j)
		}
	}
	return j.snapshot(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (*JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// FrameStream returns a reader over the job's frame stream in the
// requested format (FormatFull: EZFRAME records decodable with
// gfx.ReadFrame; FormatDelta: keyframes plus EZDELTA patches, decodable
// with gfx.ReadRecord). Late subscribers replay from the oldest record
// the hub still retains — the whole stream for short jobs, the bounded
// tail for long ones. The reader unblocks with ctx's error when ctx is
// canceled and reaches io.EOF when the job finishes; the caller must
// Close it to release the subscriber slot.
func (m *Manager) FrameStream(ctx context.Context, id string, format gfx.StreamFormat) (io.ReadCloser, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if j.frames == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoFrames, id)
	}
	return j.frames.Subscribe(ctx, format), nil
}

// Stats is the GET /v1/stats body.
type Stats struct {
	UptimeSec     float64 `json:"uptime_sec"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Running       int64   `json:"running"`
	Workers       int     `json:"workers"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	// Computed counts jobs that actually ran a kernel — no cache tier
	// answered. completed - computed is the number of cache-served jobs.
	Computed int64 `json:"computed"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	Rejected int64 `json:"rejected"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int   `json:"cache_size"`

	// Persistence counters (all zero when the daemon runs without
	// --data-dir). DiskHits/DiskMisses count second-tier lookups after a
	// memory miss; Spills counts results written behind to disk;
	// DiskCorrupt counts entries rejected by CRC and dropped.
	// Counters never carry omitempty: a client must be able to tell a
	// true zero ("no spill has ever failed") from a field the daemon
	// did not report. TestStatsCountersAlwaysPresent pins this.
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	// RemoteHits counts submissions answered by a replica fetch after
	// both local tiers missed (cluster mode with replication).
	RemoteHits      int64 `json:"remote_hits"`
	Spills          int64 `json:"spills"`
	SpillErrors     int64 `json:"spill_errors"`
	SpillDropped    int64 `json:"spill_dropped"`
	DiskEntries     int   `json:"disk_entries"`
	DiskBytes       int64 `json:"disk_bytes"`
	DiskCorrupt     int64 `json:"disk_corrupt"`
	RecoveredJobs   int64 `json:"recovered_jobs"`
	InterruptedJobs int64 `json:"interrupted_jobs"`
	// SnapshotsWritten counts checkpoints durably persisted;
	// SnapshotsResumed counts jobs that started from a stored checkpoint
	// instead of iteration zero (both zero without -snapshot-every and
	// an empty snapshot store).
	SnapshotsWritten int64 `json:"snapshots_written"`
	SnapshotsResumed int64 `json:"snapshots_resumed"`

	// Distributed-execution counters (see shard.go). Like every counter
	// above, no omitempty: zero is a reported value, not an absence.
	JobsCoordinated int64 `json:"jobs_coordinated"`
	ShardsExecuted  int64 `json:"shards_executed"`
	HalosSent       int64 `json:"halos_sent"`
	HalosSkipped    int64 `json:"halos_skipped"`

	PoolWarmLeases int64 `json:"pool_warm_leases"`
	PoolColdLeases int64 `json:"pool_cold_leases"`
	PoolsIdle      int   `json:"pools_idle"`

	// Frame-streaming counters (the broadcast hub; see hub.go). Gauge +
	// counters, no omitempty like every counter above.
	FrameSubscribers    int64 `json:"frame_subscribers"`
	FrameDroppedToKey   int64 `json:"frame_dropped_to_keyframe"`
	FramePostCloseDrops int64 `json:"frame_post_close_drops"`
	// FrameFullBytes is what the job hubs published as full-frame
	// encodings; FrameDeltaBytes is what a delta subscriber receives for
	// the same records — the spread is the delta savings.
	FrameFullBytes  int64 `json:"frame_full_bytes"`
	FrameDeltaBytes int64 `json:"frame_delta_bytes"`

	// Kernels maps kernel name to serving throughput.
	Kernels map[string]KernelThroughput `json:"kernels"`
}

// KernelThroughput is the per-kernel serving record.
type KernelThroughput struct {
	Jobs        int64   `json:"jobs"`
	Iterations  int64   `json:"iterations"`
	WallNS      int64   `json:"wall_ns"`
	ItersPerSec float64 `json:"iters_per_sec"` // computed iterations per compute-second

	// TilesDispatched/TilesSkipped aggregate lazy-variant frontiers: how
	// many tiles sparse dispatch actually computed vs. how many the
	// tile-activity engine proved skippable (both 0 for eager-only load;
	// no omitempty — zero must be reported as zero).
	TilesDispatched int64 `json:"tiles_dispatched"`
	TilesSkipped    int64 `json:"tiles_skipped"`
}

// Stats returns a consistent snapshot of the service counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		UptimeSec:      time.Since(m.start).Seconds(),
		QueueDepth:     len(m.queue),
		QueueCapacity:  cap(m.queue),
		Running:        m.running.Load(),
		Workers:        m.opts.Workers,
		Submitted:      m.submitted.Load(),
		Completed:      m.completed.Load(),
		Computed:       m.computed.Load(),
		Failed:         m.failed.Load(),
		Canceled:       m.canceled.Load(),
		Rejected:       m.rejected.Load(),
		CacheHits:      m.cache.hits.Load(),
		CacheMisses:    m.cache.misses.Load(),
		CacheSize:      m.cache.len(),
		PoolWarmLeases: m.pools.warm.Load(),
		PoolColdLeases: m.pools.cold.Load(),
		PoolsIdle:      m.pools.idleCount(),
		Kernels:        make(map[string]KernelThroughput),

		JobsCoordinated: m.jobsCoordinated.Load(),
		ShardsExecuted:  m.shardsExecuted.Load(),
		HalosSent:       m.halosSent.Load(),
		HalosSkipped:    m.halosSkipped.Load(),

		FrameSubscribers:    m.frameStats.Subscribers.Load(),
		FrameDroppedToKey:   m.frameStats.DroppedToKey.Load(),
		FramePostCloseDrops: m.frameStats.PostCloseDrops.Load(),
		FrameFullBytes:      m.frameStats.FullBytes.Load(),
		FrameDeltaBytes:     m.frameStats.DeltaBytes.Load(),
	}
	s.RemoteHits = m.remoteHits.Load()
	if m.store != nil {
		s.DiskHits = m.diskHits.Load()
		s.DiskMisses = m.diskMisses.Load()
		s.Spills = m.spills.Load()
		s.SpillErrors = m.spillErrs.Load()
		s.SpillDropped = m.spillDrops.Load()
		s.DiskEntries = m.store.Cache.Len()
		s.DiskBytes = m.store.Cache.Bytes()
		s.DiskCorrupt = m.store.Cache.Corrupt()
		s.RecoveredJobs = m.recovered.Load()
		s.InterruptedJobs = m.interrupted.Load()
		s.SnapshotsWritten = m.snapsWritten.Load()
		s.SnapshotsResumed = m.snapsResumed.Load()
	}
	m.kmu.Lock()
	for name, ks := range m.kernels {
		kt := KernelThroughput{Jobs: ks.jobs, Iterations: ks.iterations, WallNS: ks.wallNS,
			TilesDispatched: ks.dispatched, TilesSkipped: ks.skipped}
		if ks.wallNS > 0 {
			kt.ItersPerSec = float64(ks.iterations) / (float64(ks.wallNS) / 1e9)
		}
		s.Kernels[name] = kt
	}
	m.kmu.Unlock()
	return s
}

// Close shuts the service down: running jobs are canceled, queued jobs
// finish as canceled, the runner team drains, and every warm pool is
// closed. Close blocks until the teardown completes and is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()

	m.closing.Store(true)
	m.stopAll()
	close(m.queue)
	m.wg.Wait()
	// Shard ranks started for remote coordinators run off baseCtx, so
	// stopAll already aborted them; wait for their goroutines to drain.
	m.shardWg.Wait()
	if m.spill != nil {
		// Runners are done, so no more spills can arrive; drain the
		// write-behind queue so every completed result is on disk before
		// the caller closes the store.
		close(m.spill)
		m.spillWg.Wait()
	}
	m.pools.close()
}

// PutEntry adopts an externally supplied cache entry into the disk
// tier — the receive side of cluster replication and rebalancing. The
// entry's internal CRC was verified when it was decoded off the wire;
// content addressing makes the write idempotent. Returns ErrNoStore
// when the manager runs without persistence.
func (m *Manager) PutEntry(e *store.Entry) error {
	if m.store == nil {
		return ErrNoStore
	}
	return m.store.Cache.Put(e)
}

// GetEntry reads an entry from the disk tier (CRC-verified) — the send
// side of replication and the rebalancer's reader. ok is false without
// a store or when the tier misses.
func (m *Manager) GetEntry(hash string) (*store.Entry, bool) {
	if m.store == nil {
		return nil, false
	}
	return m.store.Cache.Get(hash)
}

// PutSnapshot adopts an externally supplied checkpoint into the disk
// tier — the receive side of snapshot replication. Idempotent like
// PutEntry: the key is (prefix hash, iteration).
func (m *Manager) PutSnapshot(s *store.Snapshot) error {
	if m.store == nil {
		return ErrNoStore
	}
	return m.store.Cache.PutSnapshot(s)
}

// GetEntryWire reads the raw CRC-verified record bytes for any object
// key — result entry or snapshot; the record's magic line tells the
// receiver which decoder to use. This is the kind-agnostic send side of
// replication and rebalancing, so snapshot keys appearing in
// EntryHashes move between nodes exactly like entries.
func (m *Manager) GetEntryWire(key string) ([]byte, bool) {
	if m.store == nil {
		return nil, false
	}
	return m.store.Cache.GetWire(key)
}

// EntryHashes lists the disk tier's live entries, most recently used
// first (nil without a store) — the rebalancer's work list and the
// replication-completeness view the chaos tests assert on.
func (m *Manager) EntryHashes() []string {
	if m.store == nil {
		return nil
	}
	return m.store.Cache.Hashes()
}

// CacheSizes reports the warmth of both cache tiers — what a cluster
// node advertises so peers can see a restarted member still owns its
// results (memory empties on restart, disk does not).
func (m *Manager) CacheSizes() (memEntries, diskEntries int, diskBytes int64) {
	memEntries = m.cache.len()
	if m.store != nil {
		diskEntries = m.store.Cache.Len()
		diskBytes = m.store.Cache.Bytes()
	}
	return memEntries, diskEntries, diskBytes
}
