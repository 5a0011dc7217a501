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
//   - a result cache keyed by core.Config.Hash that Submit walks as one
//     tier ladder: the in-memory LRU, an optional disk-backed
//     content-addressed store (internal/serve/store) that survives
//     restarts, and in cluster mode the ring replicas; identical jobs
//     that miss every tier share one run (runner.go),
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
	// ErrNoStore is returned by PutWire when the manager has no
	// persistence layer to adopt the record into (HTTP 501 in cluster
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
	// (default 4, which zero or a negative value also selects).
	MaxIdlePools int
	// DisableWarmPools turns pool reuse off: every job builds and closes
	// its own pool (the cold baseline of BenchmarkServe*ColdPool).
	DisableWarmPools bool
	// RecvTimeout bounds the MPI receive watchdog for distributed jobs
	// (zero keeps mpi.DefaultRecvTimeout).
	RecvTimeout time.Duration
	// HaloTimeout bounds how long a shard rank of a distributed job waits
	// for a neighbor's halo message, and how long one halo send may take
	// (a peer's session to appear included), before declaring the peer
	// lost and aborting the session (default 2s). It is the upper bound
	// on how long a shard-node death can stall the coordinating job.
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
	// status and lets clients resubmit. Frames jobs whose prefix has no
	// stored checkpoint are always interrupted — their stream
	// subscribers did not survive the restart and the replay would start
	// from zero; the others re-enqueue and resume, with new subscribers
	// attaching at the resume keyframe.
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
	frames  *FrameHub   // the stream: nil unless wantFrames and the job can still stream
	shards  int         // requested shard count (0/1: plain local run)
	cancel  context.CancelFunc
	ctx     context.Context
	done    chan struct{} // closed by retire, once the job is terminal and in the history
	flight  *flight       // the run this job leads, set by its runner (runner.go)

	// wantFrames is the submission's frames flag, as journaled: a frames
	// job recovered without a checkpoint to resume from keeps it, though
	// it has no stream.
	wantFrames bool

	mu        sync.Mutex
	state     JobState
	tier      string // stage of the cache tier that answered ("" when computed here)
	recovered bool
	result    core.Result // the job's own copy, set once it is done
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
		ID: j.id, State: j.state, Cached: j.tier != "", DiskHit: j.tier == StageCacheDisk,
		RemoteHit: j.tier == StageReplicaFetch, Recovered: j.recovered, Frames: j.wantFrames,
		Hash: j.hash, TraceID: j.traceID, Config: j.cfg, Error: j.errMsg,
		ErrorKind: j.errKind, Shards: j.shards, Activity: j.activity, SubmittedAt: j.submitted,
	}
	if j.state == JobDone {
		s.Result = &j.result // never written again once done
	}
	if !j.started.IsZero() {
		s.QueuedNS = j.started.Sub(j.submitted).Nanoseconds()
		if !j.finished.IsZero() {
			s.RanNS = j.finished.Sub(j.started).Nanoseconds()
		}
	}
	return s
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

	// ladder is the cache tiers Submit walks, fastest first; hooks are
	// the cluster layer's attachment points (SetClusterHooks).
	ladder []tier
	hooks  atomic.Pointer[ClusterHooks]

	// flights are the cacheable runs in progress, by hash: identical
	// jobs reaching a runner meanwhile wait for them (runner.go).
	flightMu sync.Mutex
	flights  map[string]*flight

	// The registry of shard ranks this node is currently executing for
	// remote coordinators (shard.go).
	shardMu       sync.Mutex
	shardSessions map[string]*ShardRank
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
	remoteHits  atomic.Int64 // replica fetch (ClusterHooks.Fetch) answered after both local tiers missed
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
		flights: make(map[string]*flight),

		shardSessions: make(map[string]*ShardRank),
	}
	m.obs = newManagerObs(m)
	m.SetClusterHooks(nil)
	m.baseCtx, m.stopAll = context.WithCancel(context.Background())
	if opts.Store != nil {
		m.store = opts.Store
		m.spill = make(chan spillReq, 256)
		m.spillWg.Add(1)
		go m.spiller()
		m.recoverJournal()
	}
	m.ladder = m.newLadder()
	m.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go m.runner()
	}
	return m
}

// ClusterHooks are the cluster layer's attachment points into a
// manager. Each function receives the originating job's trace id, so
// replication pushes, replica fetches and shard spans land in that
// job's span tree. Nil fields are skipped.
type ClusterHooks struct {
	// Spilled observes every entry and checkpoint after it is durably
	// written to the disk tier, with the bytes stored under its key:
	// the replication push point.
	Spilled func(key string, data []byte, traceID string)
	// Fetch is the last cache tier, asked after memory and disk both
	// miss: a ring replica's copy of the entry and the verified bytes it
	// sent, or nil. A fetched entry is promoted into both local tiers,
	// the disk tier as the bytes sent, so an entry whose owner died is a
	// remote fetch, not a recompute, and the owner's copy is the
	// replica's byte for byte.
	Fetch func(hash, traceID string) (*store.Entry, []byte)
	// RunSharded coordinates jobs submitted with shards > 1 (shard.go).
	RunSharded ShardRunner
}

// SetClusterHooks installs the cluster layer's hooks, or removes them
// with nil. Safe to call while jobs run: recovered jobs may already be
// completing when the cluster layer attaches.
func (m *Manager) SetClusterHooks(h *ClusterHooks) {
	if h == nil {
		h = &ClusterHooks{}
	}
	m.hooks.Store(h)
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
	return m.SubmitShards(cfg, wantFrames, "", 0)
}

// SubmitShards is Submit with an inherited trace id and a requested
// shard count. A non-empty traceID is the one the entry node minted and
// forwarded via X-Easypap-Trace on a proxied cluster hop; an empty one
// mints a fresh id, so every job carries exactly one id for its whole
// cluster life. When shards > 1 and a coordinator is installed
// (ClusterHooks.RunSharded — cluster mode), the job runs distributed
// across the cluster as one kernel execution split into row bands.
// Without a coordinator, or when the cluster cannot shard the job (no
// healthy peers, non-mpi variant), it runs as a plain local job —
// sharding is an execution strategy, never part of the cache key, so
// sharded and unsharded runs of one config hit the same cache entry.
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
		hash:       hash,
		traceID:    traceID,
		cfg:        cfg,
		wantFrames: wantFrames,
		shards:     shards,
		state:      JobQueued,
		submitted:  admitStart,
		done:       make(chan struct{}),
	}
	if wantFrames {
		j.frames = NewFrameHub(HubOptions{Stats: &m.frameStats})
	}
	// The admit span closes on every exit path: cache-answered, rejected,
	// or enqueued. Its histogram is the admission-wait distribution.
	defer func() { m.span(StageAdmit, traceID, j.id, admitStart, time.Now(), nil) }()

	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	j.id = fmt.Sprintf("j-%06d", m.nextID.Add(1))
	if !wantFrames {
		if r, stage := m.walkLadder(j); r != nil {
			return m.finishCached(j, r, stage)
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

// tier is one rung of the cache ladder Submit walks, fastest first.
// get answers with the entry or nil, and with the wire bytes it arrived
// as when it came from a peer; asked is false when the rung has no one
// to ask (no fetch hook installed). put takes a hit from a rung below,
// so the next lookup stops higher.
type tier struct {
	stage        string        // span and histogram label; names the answering tier in job status
	hits, misses *atomic.Int64 // misses nil: the replica rung counts hits only
	get          func(hash, traceID string) (e *store.Entry, wire []byte, asked bool)
	put          func(e *store.Entry, wire []byte)
}

// newLadder builds the rungs: the memory LRU, the disk store when there
// is one (it deduplicates reads per hash, so a herd costs one read),
// and the cluster's replicas.
func (m *Manager) newLadder() []tier {
	ladder := []tier{{stage: StageCacheMem, hits: &m.cache.hits, misses: &m.cache.misses,
		get: func(hash, _ string) (*store.Entry, []byte, bool) {
			if r, ok := m.cache.get(hash); ok {
				return &store.Entry{Hash: hash, Result: r}, nil, true
			}
			return nil, nil, true
		},
		put: func(e *store.Entry, _ []byte) { m.cache.put(e.Hash, e.Result) },
	}}
	if m.store != nil {
		ladder = append(ladder, tier{stage: StageCacheDisk, hits: &m.diskHits, misses: &m.diskMisses,
			get: func(hash, _ string) (*store.Entry, []byte, bool) {
				e, _ := m.store.Cache.Get(hash) // nil on a miss
				return e, nil, true
			},
			// The replica's bytes as sent, never a re-encoding, which
			// would drop what this build's decoder does not know.
			// Synchronous and not spilled: an entry adopted from a
			// replica is not pushed back out as a replication.
			put: func(e *store.Entry, wire []byte) { _ = m.store.Cache.PutWire(e.Hash, wire) },
		})
	}
	return append(ladder, tier{stage: StageReplicaFetch, hits: &m.remoteHits,
		get: func(hash, traceID string) (*store.Entry, []byte, bool) {
			fetch := m.hooks.Load().Fetch
			if fetch == nil {
				return nil, nil, false
			}
			if e, wire := fetch(hash, traceID); e != nil && e.Hash == hash {
				return e, wire, true
			}
			return nil, nil, true
		},
	})
}

// walkLadder asks each rung in turn for a cacheable job's hash. Every
// rung asked records its stage span and histogram and counts its hit
// or miss; a hit is promoted into every rung above it and returned
// with the answering rung's stage. A miss everywhere returns nil.
func (m *Manager) walkLadder(j *job) (*core.Result, string) {
	for i, t := range m.ladder {
		begin := time.Now()
		e, wire, asked := t.get(j.hash, j.traceID)
		if !asked {
			continue
		}
		m.span(t.stage, j.traceID, j.id, begin, time.Now(), nil)
		if e == nil {
			if t.misses != nil {
				t.misses.Add(1)
			}
			continue
		}
		t.hits.Add(1)
		for _, above := range m.ladder[:i] {
			above.put(e, wire)
		}
		return &e.Result, t.stage
	}
	return nil, ""
}

// finishCached completes a submission from the cache tier named by
// stage. The job was never enqueued, so no journal record exists for it.
func (m *Manager) finishCached(j *job, r *core.Result, stage string) (*JobStatus, error) {
	now := time.Now()
	j.state, j.tier, j.result = JobDone, stage, *r
	j.started, j.finished = now, now
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.jobs[j.id] = j
	m.retireLocked(j)
	m.mu.Unlock()
	m.submitted.Add(1)
	m.completed.Add(1)
	return j.snapshot(), nil
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
// requested format (FormatFull: EZFRAME records; FormatDelta: keyframes
// plus EZDELTA patches; both decodable with gfx.ReadRecord). Late
// subscribers replay from the oldest record the hub still retains —
// the whole stream for short jobs, the bounded tail for long ones. The
// reader unblocks with ctx's error when ctx is canceled and reaches
// io.EOF when the job finishes; the caller must Close it to release the
// subscriber slot.
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

// PutWire adopts a record a peer sent — an entry or a checkpoint,
// whichever its key names — into the disk tier as the bytes sent: the
// receive side of replication and rebalancing. The store checks that
// they decode as that record (an error wrapping store.ErrInvalidRecord
// when they do not); content addressing makes the write idempotent.
// Returns ErrNoStore when the manager runs without persistence.
func (m *Manager) PutWire(key string, data []byte) error {
	if m.store == nil {
		return ErrNoStore
	}
	return m.store.Cache.PutWire(key, data)
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

// GetEntryWire reads the verified record bytes stored under any object
// key, entry or snapshot: the send side of replication and rebalancing
// (PutWire is the receive side), so snapshot keys in EntryHashes move
// between nodes exactly like entries.
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
