package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/monitor"
	"easypap/internal/mpi"
	"easypap/internal/sched"
	"easypap/internal/trace"
)

// RunOutput bundles everything a run produces: the performance result plus
// the artifacts the analysis tools consume.
type RunOutput struct {
	Result
	// Final is the master's final image: the run's own current buffer,
	// not a copy. Release hands it back for the next run to reuse.
	Final *img2d.Image
	// Monitors holds one monitor per rank (index = rank) when monitoring
	// was active, nil otherwise.
	Monitors []*monitor.Monitor
	// Trace is the merged multi-rank trace when tracing was active.
	Trace *trace.Trace
}

// Release hands Final back to the free list of images and clears it,
// so the next run of the same size reuses the buffer instead of
// allocating one. Call it once nothing reads Final any more; the
// Result, Checksum included, stays valid. A caller that never calls it
// keeps Final for as long as it holds the output. Safe on a nil output
// and idempotent.
func (o *RunOutput) Release() {
	if o == nil || o.Final == nil {
		return
	}
	o.Final.Release()
	o.Final = nil
}

// Run executes a configured kernel to completion: it normalizes the
// configuration, spins up the worker pool (and the MPI world if requested),
// drives the iteration loop, and returns the collected output. It is the
// programmatic equivalent of invoking the easypap binary. Run is
// RunContext with a background context.
func Run(cfg Config) (*RunOutput, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is canceled, the iteration
// loop stops at the next iteration boundary (and any in-flight mpi.Recv
// wakes up immediately), the run returns an error wrapping ctx.Err(), and
// the worker pool is left reusable. This is what lets a serving frontend
// abort a long job without tearing the process down.
func RunContext(ctx context.Context, cfg Config) (*RunOutput, error) {
	return RunWith(ctx, cfg, RunOptions{})
}

// RunOptions customizes how a run executes without changing what it
// computes. The zero value reproduces Run's behavior exactly.
type RunOptions struct {
	// Pool, when non-nil, is the worker pool the run executes on instead
	// of building (and tearing down) its own. The caller retains ownership
	// and must Close it; its worker count must match the normalized
	// Threads. Leasing a warm pool across runs removes pool construction
	// from the per-job cost (see internal/serve). Incompatible with
	// MPIRanks > 1, where every rank owns a private pool.
	Pool *sched.Pool

	// Sink, when non-nil, receives the rendered frames instead of the
	// sink derived from the configuration (PNG sequences or Null). The
	// caller retains ownership and must Close it. Setting a sink forces
	// the per-iteration display path even without an OutputDir, which is
	// how the daemon streams frames for jobs that request them.
	Sink gfx.FrameSink

	// RecvTimeout overrides the MPI receive watchdog for distributed runs
	// (zero keeps mpi.DefaultRecvTimeout). A serving frontend sets a tight
	// bound so a wedged student program fails its job quickly instead of
	// holding a worker for the default 10 s.
	RecvTimeout time.Duration

	// OnActivity, when non-nil, observes every IterActivity a lazy kernel
	// reports, live — the hook easypapd uses to expose a running job's
	// frontier size in its status JSON. Called from the computing
	// goroutine (rank 0 only under MPI); keep it cheap and do not block.
	OnActivity func(IterActivity)

	// Comm, when non-nil, runs exactly one rank of an externally built
	// communicator group instead of spawning an in-process world: this is
	// how a cluster shard executes its band of a distributed job (the
	// other ranks live on other nodes, behind an mpi.NetWorld). The
	// variant must be MPI-aware; Config.MPIRanks is ignored. Rank 0 is
	// the master (it produces the final image); a leased Pool is allowed
	// because only this one rank runs here.
	Comm *mpi.Comm

	// OnHalo, when non-nil, observes every boundary exchange a
	// distributed kernel reports (sent/skipped/bytes deltas plus the
	// exchange's wall time), live, from the computing goroutine of every
	// local rank. A serving shard wires its per-node halo counters and
	// stage histogram here.
	OnHalo func(sent, skipped, bytes int64, d time.Duration)

	// Resume, when non-nil, restores a checkpoint before computing: the
	// kernel is Init'ed as usual, then its Codec decodes Resume.State and
	// the iteration counter starts at Resume.Iter, so only the remaining
	// Iterations-Iter iterations are computed. Requires a kernel with a
	// StateCodec and a single-process run (no Comm, MPIRanks <= 1) — the
	// snapshot captures whole-grid state, which one rank of a band
	// decomposition cannot consume.
	Resume *ResumeState

	// SnapshotEvery, when positive (and OnSnapshot is set, the kernel
	// has a Codec, and the run is single-process), checkpoints the
	// kernel state at every iteration whose absolute index is a multiple
	// of this value. Boundaries are absolute, so a run resumed from
	// iteration 300 with SnapshotEvery=200 snapshots at 400, 600, ... —
	// keeping the (prefix, iter) key space aligned across resumes.
	SnapshotEvery int

	// OnSnapshot receives each encoded checkpoint, called from the
	// computing goroutine between iterations — hand the bytes off (the
	// daemon enqueues them on its write-behind spiller) rather than
	// blocking the run on I/O. A final iteration landing on the cadence
	// IS snapshotted: the finished entry caches only the image, and the
	// end-state snapshot is what lets a deeper run of the same prefix
	// (a sweep's next step) resume without recomputing anything.
	OnSnapshot func(iter int, state []byte)
}

// ResumeState is a decoded checkpoint to restore before computing: the
// kernel-private bytes produced by a StateCodec at iteration Iter of the
// same configuration prefix (Config.PrefixHash).
type ResumeState struct {
	Iter  int
	State []byte
}

// RunWith is RunContext with explicit execution options.
func RunWith(ctx context.Context, cfg Config, opts RunOptions) (*RunOutput, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	k, err := Lookup(cfg.Kernel)
	if err != nil {
		return nil, err
	}

	sink := opts.Sink
	if sink == nil {
		s, err := makeSink(cfg)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		sink = s
	}

	if opts.Resume != nil && (opts.Comm != nil || cfg.MPIRanks > 1) {
		return nil, fmt.Errorf("core: resume requires a single-process run (a band rank cannot restore whole-grid state)")
	}

	if opts.Comm != nil {
		// One rank of an external (distributed) world: the caller owns the
		// world's lifecycle and failure handling; this process only
		// computes its band.
		out := &RunOutput{}
		if err := runRank(ctx, cfg, k, sink, opts.rank(opts.Comm), out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if cfg.MPIRanks > 1 {
		if opts.Pool != nil {
			return nil, fmt.Errorf("core: a leased pool cannot serve %d MPI ranks (each rank owns a private pool)", cfg.MPIRanks)
		}
		return runMPI(ctx, cfg, k, sink, opts)
	}
	out := &RunOutput{}
	if err := runRank(ctx, cfg, k, sink, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// rank returns the options of one rank of a band decomposition running
// on comm. Checkpointing is single-process only (a snapshot captures
// whole-grid state), so its fields are cleared.
func (o RunOptions) rank(comm *mpi.Comm) RunOptions {
	o.Comm = comm
	o.Resume, o.SnapshotEvery, o.OnSnapshot = nil, 0, nil
	return o
}

// windows reports whether the run draws the monitoring windows and
// returns its monitors (Monitoring or HeatMode). Tracing records through
// a monitor as well, but draws and returns none.
func (c Config) windows() bool { return c.Monitoring || c.HeatMode }

// makeSink builds the display sink: performance mode discards frames, the
// default mode writes PNG sequences under OutputDir.
func makeSink(cfg Config) (gfx.FrameSink, error) {
	if cfg.NoDisplay || cfg.OutputDir == "" {
		return gfx.Null{}, nil
	}
	return gfx.NewPNGSink(cfg.OutputDir, cfg.FrameEvery)
}

// runMPI runs one rank group per simulated process. Rank 0 is the master:
// it owns the display (and, with --debug M, every rank additionally
// renders its own monitoring windows, as in the paper's Fig. 13).
func runMPI(ctx context.Context, cfg Config, k *Kernel, sink gfx.FrameSink, opts RunOptions) (*RunOutput, error) {
	out := &RunOutput{Monitors: make([]*monitor.Monitor, cfg.MPIRanks)}
	var sinkMu sync.Mutex
	lockedSink := &lockedSink{inner: sink, mu: &sinkMu}
	perRankTraces := make([]*trace.Trace, cfg.MPIRanks)
	perRankActivity := make([][]IterActivity, cfg.MPIRanks)

	perRankHalos := make([][3]int64, cfg.MPIRanks)
	err := mpi.RunContext(ctx, cfg.MPIRanks, mpi.Config{RecvTimeout: opts.RecvTimeout}, func(comm *mpi.Comm) error {
		rankOut := &RunOutput{}
		if err := runRank(ctx, cfg, k, lockedSink, opts.rank(comm), rankOut); err != nil {
			return err
		}
		out.Monitors[comm.Rank()] = rankMonitor(rankOut)
		perRankTraces[comm.Rank()] = rankOut.Trace
		perRankActivity[comm.Rank()] = rankOut.Result.Activity
		perRankHalos[comm.Rank()] = [3]int64{rankOut.Result.HalosSent, rankOut.Result.HalosSkipped, rankOut.Result.HaloBytes}
		if comm.Rank() == 0 {
			out.Result = rankOut.Result
			out.Final = rankOut.Final
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Trace = mergeTraces(perRankTraces)
	out.Result.Activity = mergeActivity(perRankActivity)
	out.Result.HalosSent, out.Result.HalosSkipped, out.Result.HaloBytes = 0, 0, 0
	for _, h := range perRankHalos {
		out.Result.HalosSent += h[0]
		out.Result.HalosSkipped += h[1]
		out.Result.HaloBytes += h[2]
	}
	if !monitorsPresent(out.Monitors) {
		out.Monitors = nil
	}
	return out, nil
}

func rankMonitor(ro *RunOutput) *monitor.Monitor {
	if len(ro.Monitors) == 1 {
		return ro.Monitors[0]
	}
	return nil
}

func monitorsPresent(ms []*monitor.Monitor) bool {
	for _, m := range ms {
		if m != nil {
			return true
		}
	}
	return false
}

// mergeActivity sums per-rank frontier series element-wise: ranks report
// their own band's activity in lockstep (the convergence vote is
// collective), so entry i of every rank describes the same iteration and
// the sums are whole-grid counts. Nil if no rank reported.
func mergeActivity(perRank [][]IterActivity) []IterActivity {
	var merged []IterActivity
	for _, series := range perRank {
		for i, a := range series {
			if i == len(merged) {
				merged = append(merged, a)
				continue
			}
			merged[i].Active += a.Active
			merged[i].Total += a.Total
		}
	}
	return merged
}

// exportTrace builds the EZPT trace of one rank from its monitor: its
// iterations' events, concatenated. Each iteration is ordered by start
// time, then CPU, and one rank's iterations do not overlap in time, so
// the trace is in that order, as EASYVIEW reads it. Record times are ns
// since the monitor's epoch, which is the trace's start.
func exportTrace(cfg Config, mon *monitor.Monitor) *trace.Trace {
	iters := mon.Iterations()
	n := 0
	for _, it := range iters {
		n += len(it.Tiles)
	}
	events := make([]trace.Event, 0, n)
	for _, it := range iters {
		events = append(events, it.Tiles...)
	}
	return &trace.Trace{Meta: trace.Meta{
		Kernel: cfg.Kernel, Variant: cfg.Variant, Dim: cfg.Dim,
		TileW: cfg.TileW, TileH: cfg.TileH, Threads: cfg.Threads,
		Ranks: cfg.MPIRanks, Iterations: cfg.Iterations,
		Schedule: cfg.Schedule.String(), Label: cfg.Label,
		Recorded: mon.Epoch(),
	}, Events: events}
}

// mergeTraces concatenates per-rank traces into one (nil if none traced).
func mergeTraces(traces []*trace.Trace) *trace.Trace {
	var merged *trace.Trace
	for _, t := range traces {
		if t == nil {
			continue
		}
		if merged == nil {
			cp := *t
			merged = &cp
			continue
		}
		merged.Events = append(merged.Events, t.Events...)
	}
	if merged != nil {
		merged.Meta.Ranks = len(traces)
	}
	return merged
}

// lockedSink serializes frame writes from concurrent ranks.
type lockedSink struct {
	inner gfx.FrameSink
	mu    *sync.Mutex
}

func (s *lockedSink) Frame(w string, iter int, img *img2d.Image) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Frame(w, iter, img)
}

func (s *lockedSink) Close() error { return nil } // owner closes the inner sink

// runRank executes the kernel on one rank (or locally when opts.Comm is
// nil), renders frames to sink, and fills out. A non-nil opts.Pool is a
// lease: the caller owns its lifecycle and runRank only borrows it for
// the duration of the run. A caller's own sink (opts.Sink) forces the
// per-iteration display path.
func runRank(goCtx context.Context, cfg Config, k *Kernel, sink gfx.FrameSink, opts RunOptions, out *RunOutput) error {
	pool, comm := opts.Pool, opts.Comm
	if pool == nil {
		pool = sched.NewPool(cfg.Threads)
		defer pool.Close()
	} else if pool.Workers() != cfg.Threads {
		return fmt.Errorf("core: leased pool has %d workers, config wants %d threads",
			pool.Workers(), cfg.Threads)
	}
	grid, err := sched.NewTileGrid(cfg.Dim, cfg.TileW, cfg.TileH)
	if err != nil {
		return err
	}

	ctx := &Ctx{
		Cfg:   cfg,
		Buf:   img2d.NewBuffers(cfg.Dim),
		Pool:  pool,
		Grid:  grid,
		Comm:  comm,
		goCtx: goCtx,
	}
	// Every buffer the run leased goes back when it ends, whatever the
	// path out: the kernel's own through Finalize, then the image pair,
	// except the current image a successful master keeps as out.Final.
	// Nothing outlives the run that could still read them: the pool's
	// workers have joined, sinks do not retain frames, and messages to
	// other ranks are fresh slices.
	defer func() {
		if k.Finalize != nil {
			k.Finalize(ctx)
		}
		ctx.Buf.Release(out.Final)
	}()
	rank := 0
	if comm == nil || comm.Rank() == 0 {
		ctx.onActivity = opts.OnActivity
	}
	ctx.onHalo = opts.OnHalo
	if comm != nil {
		rank = comm.Rank()
		// Tile-aligned bands: every band boundary falls on a tile-row
		// boundary, so the frontier's Restrict covers each band exactly and
		// rank counts that do not divide the row count still work (the tile
		// rows split unevenly instead of the pixel rows splitting off-tile).
		ctx.Band = mpi.BandForTiles(cfg.Dim, cfg.TileH, comm.Size(), rank)
	} else {
		ctx.Band = mpi.Band{Lo: 0, Hi: cfg.Dim, Dim: cfg.Dim}
	}

	// One recorder serves both instruments: the windows read the
	// monitor's iterations, and the trace is exported from them.
	if cfg.windows() || cfg.TracePath != "" {
		ctx.mon = monitor.New(cfg.Threads, cfg.Dim)
		ctx.mon.SetRank(rank)
	}

	if k.Init != nil {
		if err := k.Init(ctx); err != nil {
			return fmt.Errorf("core: initializing kernel %s: %w", cfg.Kernel, err)
		}
	}

	resumedFrom := 0
	if res := opts.Resume; res != nil {
		if k.Codec == nil {
			return fmt.Errorf("core: kernel %s has no state codec to resume from", cfg.Kernel)
		}
		if res.Iter <= 0 || res.Iter >= cfg.Iterations {
			return fmt.Errorf("core: resume iteration %d outside (0, %d)", res.Iter, cfg.Iterations)
		}
		if err := k.Codec.DecodeState(ctx, res.State); err != nil {
			return fmt.Errorf("core: restoring kernel %s checkpoint at iteration %d: %w", cfg.Kernel, res.Iter, err)
		}
		resumedFrom = res.Iter
		ctx.iters = resumedFrom
	}

	displaying := opts.Sink != nil || (!cfg.NoDisplay && cfg.OutputDir != "")
	// Dirty-tile capture feeds delta frames. Single-process runs only: under
	// MPI the master's gathered image spans every band while its frontier
	// covers just its own, so the reported set would not bound the changes.
	if displaying && comm == nil {
		if _, ok := sink.(gfx.DirtySink); ok {
			ctx.wantDirty = true
		}
	}
	// snapshot checkpoints the state after the iteration whose absolute
	// index is ctx.iters, when that index falls on a cadence boundary.
	every := opts.SnapshotEvery
	snapshots := every > 0 && opts.OnSnapshot != nil && k.Codec != nil
	snapshot := func() error {
		if !snapshots || ctx.iters <= resumedFrom || ctx.iters%every != 0 {
			return nil
		}
		state, err := k.Codec.EncodeState(ctx)
		if err != nil {
			return fmt.Errorf("core: snapshotting kernel %s at iteration %d: %w", cfg.Kernel, ctx.iters, err)
		}
		opts.OnSnapshot(ctx.iters, state)
		return nil
	}

	// One loop for every mode. Each call computes up to the next stop:
	// the next iteration when displaying (the framework regains control
	// to refresh the windows, like the interactive SDL loop; frames are
	// numbered by absolute iteration, so a resumed stream picks up where
	// the checkpoint left off), the next absolute snapshot boundary when
	// checkpointing, the end otherwise (one bulk call; ForIterations
	// still brackets iterations for the monitor and the tracer and checks
	// goCtx at every boundary). The loop stops when the kernel converged:
	// the steady iteration counts and is displayed, but is not
	// snapshotted — the finished entry covers it, and a deeper run
	// resumed from it would count a second steady iteration. A call that
	// comes back short (cancellation, or a kernel that signals
	// convergence by its return value alone) stops it as well.
	compute := k.Variants[cfg.Variant]
	start := time.Now()
	for ctx.iters < cfg.Iterations && goCtx.Err() == nil {
		step := cfg.Iterations - ctx.iters
		if displaying {
			step = 1
		} else if snapshots {
			step = min(step, every-ctx.iters%every)
		}
		n := compute(ctx, step)
		ctx.iters += n
		if displaying && n > 0 {
			if err := refreshDisplay(ctx, k, sink, ctx.iters); err != nil {
				return err
			}
		}
		if n < step || ctx.steady {
			break
		}
		if err := snapshot(); err != nil {
			return err
		}
	}
	total := ctx.iters - resumedFrom
	wall := time.Since(start)

	// A canceled run returns promptly with the context's error instead of a
	// truncated result: the caller (e.g. the daemon's job runner) must be
	// able to distinguish "converged early" from "aborted". The pool is
	// idle at this point — a leased pool stays reusable.
	if err := goCtx.Err(); err != nil {
		return fmt.Errorf("core: run canceled after %d iterations (%v): %w", total, wall, err)
	}

	// Final refresh so out.Final reflects the last iteration even in
	// performance mode.
	if k.Refresh != nil {
		k.Refresh(ctx)
	}

	// Iterations reports the absolute depth reached (prefix + computed),
	// so a resumed result is interchangeable with a cold run's; the
	// computed share is recoverable as Iterations - ResumedFrom.
	out.Result = Result{Config: cfg, WallTime: wall, Iterations: resumedFrom + total,
		ResumedFrom: resumedFrom, Activity: ctx.activity,
		HalosSent: ctx.halosSent, HalosSkipped: ctx.halosSkipped, HaloBytes: ctx.haloBytes}
	if ctx.IsMaster() {
		out.Final = ctx.Cur()
		out.Result.Checksum = imageChecksum(out.Final)
	}
	if cfg.windows() {
		out.Monitors = []*monitor.Monitor{ctx.mon}
	}
	if cfg.TracePath != "" {
		tr := exportTrace(cfg, ctx.mon)
		out.Trace = tr
		// Local runs save immediately; MPI runs merge at the caller and
		// the master saves.
		if comm == nil {
			if err := tr.Save(cfg.TracePath); err != nil {
				return err
			}
		}
	}
	return nil
}

// checksumChunk is how many pixels imageChecksum converts per hash call.
const checksumChunk = 4096

// imageChecksum computes the hex SHA-256 of an image's pixels
// (little-endian), the Result.Checksum byte-identity probe. The pixels
// are converted and hashed a 16 KiB chunk at a time: one buffer that
// size instead of a copy of the image, and still few enough calls that
// feeding SHA-256 costs nothing extra (four bytes at a time costs more
// than twice as much).
func imageChecksum(im *img2d.Image) string {
	h := sha256.New()
	buf := make([]byte, 4*checksumChunk)
	for px := im.Pixels(); len(px) > 0; {
		n := min(len(px), checksumChunk)
		for i, p := range px[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], p)
		}
		h.Write(buf[:4*n])
		px = px[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refreshDisplay pushes the main window frame (master only) plus the
// monitoring windows; with --debug M every rank renders its own windows.
func refreshDisplay(ctx *Ctx, k *Kernel, sink gfx.FrameSink, iter int) error {
	if k.Refresh != nil {
		k.Refresh(ctx)
	}
	rank := ctx.Rank()
	showAll := false
	for _, f := range ctx.Cfg.Debug {
		if f == 'M' {
			showAll = true
		}
	}
	if ctx.IsMaster() {
		// When the kernel reported its active tile set for exactly this
		// iteration and the sink understands dirty frames, hand it the set:
		// the frontier's no-copy invariant guarantees every pixel outside
		// those tiles is unchanged since the previous frame.
		ds, haveDirty := sink.(gfx.DirtySink)
		if haveDirty && ctx.wantDirty && ctx.dirtyOK && ctx.dirtyIter == iter {
			set := &gfx.TileSet{
				TilesX: ctx.Grid.TilesX, TilesY: ctx.Grid.TilesY,
				TileW: ctx.Grid.TileW, TileH: ctx.Grid.TileH,
				Tiles: ctx.dirtyTiles,
			}
			if err := ds.FrameDirty("main", iter, ctx.Cur(), set); err != nil {
				return err
			}
		} else if err := sink.Frame("main", iter, ctx.Cur()); err != nil {
			return err
		}
	}
	if !ctx.Cfg.windows() {
		return nil
	}
	if !ctx.IsMaster() && !showAll {
		return nil
	}
	suffix := ""
	if showAll && ctx.Comm != nil {
		suffix = fmt.Sprintf("-rank%d", rank)
	}
	iters := ctx.mon.Iterations()
	if len(iters) == 0 {
		return nil
	}
	last := iters[len(iters)-1]
	var tiling *img2d.Image
	if ctx.Cfg.HeatMode {
		tiling = monitor.HeatImage(last, ctx.Cfg.Dim, 512)
	} else {
		tiling = monitor.TilingImage(last, ctx.Cfg.Dim, 512)
	}
	if err := sink.Frame("tiling"+suffix, iter, tiling); err != nil {
		return err
	}
	activity := monitor.ActivityImage(last, ctx.mon.IdlenessHistory(), 512)
	if err := sink.Frame("activity"+suffix, iter, activity); err != nil {
		return err
	}
	// Lazy kernels additionally get the frontier heat map: cumulative
	// tile-activity residency, the window where a collapsing frontier is
	// visible at a glance.
	if frontier := monitor.FrontierImage(ctx.mon, 512); frontier != nil {
		return sink.Frame("frontier"+suffix, iter, frontier)
	}
	return nil
}
