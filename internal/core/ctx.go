package core

import (
	"context"
	"sync/atomic"
	"time"

	"easypap/internal/img2d"
	"easypap/internal/monitor"
	"easypap/internal/mpi"
	"easypap/internal/sched"
	"easypap/internal/tilegrid"
)

// Ctx is the execution context handed to kernel functions: the image
// buffers (cur_img / next_img), the worker pool, the tile decomposition,
// and the instrumentation entry points (monitoring_start_tile /
// monitoring_end_tile). Under MPI it also carries the communicator and the
// rank's row band.
type Ctx struct {
	Cfg  Config
	Buf  *img2d.Buffers
	Pool *sched.Pool
	Grid sched.TileGrid

	// Comm is non-nil when the variant runs under --mpirun; Band is this
	// rank's horizontal slab of the image.
	Comm *mpi.Comm
	Band mpi.Band

	mon     *monitor.Monitor // the run's tile recorder; nil when neither monitoring nor tracing
	curIter atomic.Int32
	iters   int  // completed iterations (run loop bookkeeping)
	steady  bool // a ForIterations body returned false: the run converged
	priv    any
	goCtx   context.Context // run cancellation (never nil inside a run)

	activity   []IterActivity     // per-iteration frontier sizes (lazy kernels)
	onActivity func(IterActivity) // live observer (RunOptions.OnActivity)

	// Dirty-tile capture for delta frames: when the display path wants
	// them (wantDirty), ReportActivity copies the reported active set into
	// dirtyTiles — the caller's slice is only valid until the frontier's
	// next Advance, but refreshDisplay runs after the swap.
	wantDirty  bool
	dirtyTiles []int32            // copy of the latest reported active set (reused)
	dirtyIter  int                // iteration dirtyTiles belongs to
	dirtyOK    bool               // a tile list was reported for dirtyIter
	dirtyRim   *tilegrid.Frontier // widens dirtyTiles for WidenDirty (reused)

	halosSent    int64                                             // boundary messages this rank sent
	halosSkipped int64                                             // quiet edges this rank skipped
	haloBytes    int64                                             // boundary payload bytes sent
	onHalo       func(sent, skipped, bytes int64, d time.Duration) // live observer (RunOptions.OnHalo)
}

// IterActivity is one iteration's tile-frontier size, as reported by lazy
// kernel variants through ReportActivity: how many of the Total owned
// tiles were dispatched. The per-run series (Result.Activity) is the
// job's "frontier collapse" curve a serving client can watch.
type IterActivity struct {
	Iter   int `json:"iter"`
	Active int `json:"active"`
	Total  int `json:"total"`
}

// Cur returns the current (read) image — the cur_img macro.
func (ctx *Ctx) Cur() *img2d.Image { return ctx.Buf.Cur() }

// Next returns the next (write) image — the next_img macro.
func (ctx *Ctx) Next() *img2d.Image { return ctx.Buf.Next() }

// Swap exchanges the images — EASYPAP's swap_images().
func (ctx *Ctx) Swap() { ctx.Buf.Swap() }

// Dim returns the image side length — the DIM global of C kernels.
func (ctx *Ctx) Dim() int { return ctx.Cfg.Dim }

// SetPriv stores kernel-private state (zoom coordinates, board structures,
// ...) for the duration of the run.
func (ctx *Ctx) SetPriv(v any) { ctx.priv = v }

// Priv returns the kernel-private state stored by SetPriv.
func (ctx *Ctx) Priv() any { return ctx.priv }

// Iter returns the current 1-based iteration number.
func (ctx *Ctx) Iter() int { return int(ctx.curIter.Load()) }

// StartTile opens an instrumented tile span for the worker —
// monitoring_start_tile(who). It reduces to one branch when neither
// monitoring nor tracing is active: the monitor records for both.
func (ctx *Ctx) StartTile(worker int) {
	if ctx.mon != nil {
		ctx.mon.StartTile(worker)
	}
}

// EndTile closes the span with the computed rectangle —
// monitoring_end_tile(x, y, w, h, who).
func (ctx *Ctx) EndTile(x, y, w, h, worker int) {
	if ctx.mon != nil {
		ctx.mon.EndTile(x, y, w, h, worker)
	}
}

// ReportActivity records the tile frontier a lazy kernel dispatches this
// iteration: active of total owned tiles, with the active tile indices
// (tiles may be nil when the caller tracks counts only). The series lands
// in Result.Activity, feeds the monitor's frontier heat map, and fires the
// run's live activity observer — the plumbing that lets easypapd clients
// watch a frontier collapse. Call it once per iteration, before or after
// the dispatch; eager variants simply never call it.
func (ctx *Ctx) ReportActivity(active, total int, tiles []int32) {
	a := IterActivity{Iter: ctx.Iter(), Active: active, Total: total}
	ctx.activity = append(ctx.activity, a)
	if ctx.mon != nil {
		ctx.mon.RecordActivity(active, total, tiles, ctx.Grid.TilesX, ctx.Grid.TilesY)
	}
	if ctx.onActivity != nil {
		ctx.onActivity(a)
	}
	if ctx.wantDirty {
		ctx.dirtyIter = a.Iter
		ctx.dirtyOK = tiles != nil
		ctx.dirtyTiles = append(ctx.dirtyTiles[:0], tiles...)
	}
}

// WidenDirty adds the eight neighbours of every tile in this iteration's
// reported active set to the tiles the frame's delta patches. In-place
// rules call it after ReportActivity: they add into the rim of tiles they
// did not dispatch, so those tiles change too. Result.Activity, the
// monitor and the activity observer keep the dispatch frontier.
func (ctx *Ctx) WidenDirty() {
	if !ctx.wantDirty || !ctx.dirtyOK {
		return
	}
	if ctx.dirtyRim == nil {
		ctx.dirtyRim = tilegrid.New(ctx.Grid)
		ctx.dirtyRim.Advance() // drop New's all-tiles marking
	}
	for _, t := range ctx.dirtyTiles {
		ctx.dirtyRim.MarkChanged(int(t)%ctx.Grid.TilesX, int(t)/ctx.Grid.TilesX)
	}
	ctx.dirtyRim.Advance()
	ctx.dirtyTiles = append(ctx.dirtyTiles[:0], ctx.dirtyRim.Active()...)
}

// Activity returns the per-iteration frontier series reported so far (nil
// for kernels that never report).
func (ctx *Ctx) Activity() []IterActivity { return ctx.activity }

// ReportHalo records one boundary-exchange round of a distributed kernel:
// how many halo messages this rank sent, how many quiet edges the
// frontier-skip rule elided, the payload bytes shipped, and the wall time
// the protocol took. Totals land in Result.HalosSent/HalosSkipped and the
// live observer (RunOptions.OnHalo) feeds a serving shard's per-node
// counters and stage histograms. mpi.Halo calls it once per exchange when
// wired as its OnStep observer.
func (ctx *Ctx) ReportHalo(sent, skipped, bytes int64, d time.Duration) {
	ctx.halosSent += sent
	ctx.halosSkipped += skipped
	ctx.haloBytes += bytes
	if ctx.onHalo != nil {
		ctx.onHalo(sent, skipped, bytes, d)
	}
}

// AddWork accumulates per-task performance-counter units into the
// worker's open tile/task span (no-op without instrumentation). Kernels
// report hardware-independent work units — escape iterations, touched
// pixels — standing in for the PAPI counters of the paper's future work.
func (ctx *Ctx) AddWork(worker int, units int64) {
	if ctx.mon != nil {
		ctx.mon.AddWork(worker, units)
	}
}

// StartTask opens an instrumented task span (traced as KindTask so
// EASYVIEW distinguishes dependent tasks from plain tiles).
func (ctx *Ctx) StartTask(worker int) {
	if ctx.mon != nil {
		ctx.mon.StartTask(worker)
	}
}

// EndTask closes a task span with the computed rectangle.
func (ctx *Ctx) EndTask(x, y, w, h, worker int) {
	ctx.EndTile(x, y, w, h, worker)
}

// ForIterations is the kernel-side iteration loop: it brackets every
// iteration for the monitor (and so the trace) and honours early
// convergence.
// body returns false to stop iterating (steady state); ForIterations
// returns the number of iterations actually executed, the steady one
// included, and records the convergence on the Ctx so the run loop stops
// there too, whatever the length of the call.
//
// A typical variant reads:
//
//	func mandelOmpTiled(ctx *core.Ctx, nbIter int) int {
//	    return ctx.ForIterations(nbIter, func(it int) bool {
//	        ctx.Pool.ParallelForTiles(ctx.Grid, ctx.Cfg.Schedule, doTile)
//	        zoom()
//	        return true
//	    })
//	}
func (ctx *Ctx) ForIterations(nbIter int, body func(it int) bool) int {
	done := 0
	for it := 1; it <= nbIter && ctx.StartIteration(it); it++ {
		cont := body(it)
		ctx.EndIteration()
		done = it
		if !cont {
			ctx.steady = true
			break
		}
	}
	return done
}

// StartIteration opens iteration it (1-based) of the current compute
// call, or returns false and opens nothing when the run is canceled.
// Cancellation is honored at iteration boundaries: the construct in
// flight finishes (workers join at its implicit barrier), so the pool is
// idle and reusable the moment the run returns. An opened iteration
// carries its absolute number (the iterations of earlier calls plus it)
// into Iter, trace events and activity reports, and starts the
// monitor's iteration; EndIteration closes it. ForIterations brackets
// every iteration with the pair. A variant that keeps its iteration loop
// inside one parallel region calls them from Single blocks, and its
// members stop together when StartIteration says so.
func (ctx *Ctx) StartIteration(it int) bool {
	if ctx.goCtx != nil && ctx.goCtx.Err() != nil {
		return false
	}
	iter := ctx.iters + it
	ctx.curIter.Store(int32(iter))
	if ctx.mon != nil {
		ctx.mon.StartIteration(iter)
	}
	return true
}

// EndIteration closes the iteration StartIteration opened.
func (ctx *Ctx) EndIteration() {
	if ctx.mon != nil {
		ctx.mon.EndIteration()
	}
}

// Context returns the run's cancellation context. Kernels with long
// single iterations may poll it to abort early; ForIterations already
// checks it at every iteration boundary. It is context.Background() for
// runs started without RunContext.
func (ctx *Ctx) Context() context.Context {
	if ctx.goCtx == nil {
		return context.Background()
	}
	return ctx.goCtx
}

// Rank returns the MPI rank (0 when not distributed).
func (ctx *Ctx) Rank() int {
	if ctx.Comm == nil {
		return 0
	}
	return ctx.Comm.Rank()
}

// IsMaster reports whether this is the displaying process (rank 0, or the
// only process).
func (ctx *Ctx) IsMaster() bool { return ctx.Rank() == 0 }
