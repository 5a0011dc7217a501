package kernels

// The mandel kernel computes the Mandelbrot set and zooms a little at each
// iteration, every pixel exactly as the paper's Fig. 1. Checking set
// membership is independent per pixel, so the kernel is trivially
// parallel — but the wildly varying per-pixel cost (in-set pixels pay the
// full iteration budget) makes it the canonical load-balancing study
// (paper §III-A, Figs. 3, 4, 6, 8, 9a).

import (
	"easypap/internal/core"
	"easypap/internal/img2d"
	"easypap/internal/sched"
	"easypap/internal/taskdep"
)

// mandelMaxIter is the escape iteration budget (EASYPAP uses 4096; the
// ratio between in-set and far-outside pixels is what creates imbalance).
const mandelMaxIter = 4096

// mandelView is the kernel-private viewport, shrunk by zoom() each
// iteration toward a visually interesting point on the set's boundary.
type mandelView struct {
	leftX, rightX float64
	topY, bottomY float64
}

func newMandelView() *mandelView {
	return &mandelView{leftX: -0.2395, rightX: -0.2275, topY: 0.660, bottomY: 0.648}
}

// zoom shrinks the viewport by 1% — the paper's zoom() step.
func (v *mandelView) zoom() {
	const factor = 0.99
	xr := (v.rightX - v.leftX) * (1 - factor) / 2
	yr := (v.topY - v.bottomY) * (1 - factor) / 2
	v.leftX += xr
	v.rightX -= xr
	v.topY -= yr
	v.bottomY += yr
}

// mandelColors maps an escape iteration modulo 256 to its color. The hue
// wheel is the same for every pixel, so it is converted from HSV once
// instead of once per pixel.
var mandelColors = func() (t [256]img2d.Pixel) {
	for i := range t {
		t[i] = img2d.HSV(float64(i)/255*360, 0.8, 1)
	}
	return t
}()

// mandelLane is one pixel in flight: the real part of its c, its z and the
// iterations done so far. Four fields, so the compiler keeps a lane in
// registers.
type mandelLane struct {
	cr, zr, zi float64
	iter       int
}

// escape iterates z = z^2 + c from the lane's state to the pixel's escape
// iteration, or mandelMaxIter for a pixel in the set: Fig. 1's per-pixel
// loop.
func (l mandelLane) escape(ci float64) int {
	zr, zi, iter := l.zr, l.zi, l.iter
	for ; iter < mandelMaxIter; iter++ {
		zr2 := zr * zr
		zi2 := zi * zi
		if zr2+zi2 > 4.0 {
			break
		}
		zi = 2*zr*zi + ci
		zr = zr2 - zi2 + l.cr
	}
	return iter
}

// paint colors pixel x by its escape iteration (black for in-set pixels)
// and returns that iteration: the pixel's work-unit cost, reported as the
// task's performance counter.
func paint(px []img2d.Pixel, x, iter int) int64 {
	if iter == mandelMaxIter {
		px[x] = img2d.Black
	} else {
		px[x] = mandelColors[iter%256]
	}
	return int64(iter)
}

// row computes the pixels [x0, x1) of row y into px and returns their
// escape-iteration total. Every variant computes its pixels here.
//
// One pixel's loop is a chain of dependent float operations, so the row
// keeps three pixels in flight, lanes a, b and c, and steps them together:
// the float units overlap three chains instead of waiting on one. Each lane
// runs escape's recurrence, the same expressions in the same order, so
// every pixel and iteration count is what the one-pixel loop gives. A lane
// whose pixel escapes or reaches mandelMaxIter paints it and takes the
// segment's next pixel. Once none is left, the other two finish one at a
// time, as do segments shorter than three pixels.
func (v *mandelView) row(px []img2d.Pixel, y, x0, x1, dim int) int64 {
	xstep := (v.rightX - v.leftX) / float64(dim)
	ystep := (v.topY - v.bottomY) / float64(dim)
	ci := v.topY - ystep*float64(y)
	start := func(x int) mandelLane { return mandelLane{cr: v.leftX + xstep*float64(x)} }
	var work int64
	x := x0
	if x1-x0 >= 3 {
		ax, bx, cx := x, x+1, x+2
		a, b, c := start(ax), start(bx), start(cx)
		x += 3
		for {
			ar2 := a.zr * a.zr
			ai2 := a.zi * a.zi
			br2 := b.zr * b.zr
			bi2 := b.zi * b.zi
			cr2 := c.zr * c.zr
			ci2 := c.zi * c.zi
			if a.iter == mandelMaxIter || ar2+ai2 > 4.0 {
				work += paint(px, ax, a.iter)
				if x == x1 {
					work += paint(px, bx, b.escape(ci)) + paint(px, cx, c.escape(ci))
					break
				}
				ax, a = x, start(x)
				x++
				continue
			}
			if b.iter == mandelMaxIter || br2+bi2 > 4.0 {
				work += paint(px, bx, b.iter)
				if x == x1 {
					work += paint(px, ax, a.escape(ci)) + paint(px, cx, c.escape(ci))
					break
				}
				bx, b = x, start(x)
				x++
				continue
			}
			if c.iter == mandelMaxIter || cr2+ci2 > 4.0 {
				work += paint(px, cx, c.iter)
				if x == x1 {
					work += paint(px, ax, a.escape(ci)) + paint(px, bx, b.escape(ci))
					break
				}
				cx, c = x, start(x)
				x++
				continue
			}
			a.zi = 2*a.zr*a.zi + ci
			a.zr = ar2 - ai2 + a.cr
			b.zi = 2*b.zr*b.zi + ci
			b.zr = br2 - bi2 + b.cr
			c.zi = 2*c.zr*c.zi + ci
			c.zr = cr2 - ci2 + c.cr
			a.iter++
			b.iter++
			c.iter++
		}
	}
	for ; x < x1; x++ {
		work += paint(px, x, start(x).escape(ci))
	}
	return work
}

// mandelTile computes all pixels of a rectangle, one row segment at a
// time — the do_tile body — and returns the tile's total work (escape
// iterations).
func mandelTile(v *mandelView, im *img2d.Image, dim, x, y, w, h int) int64 {
	var work int64
	for i := y; i < y+h; i++ {
		work += v.row(im.Row(i), i, x, x+w, dim)
	}
	return work
}

func mandelState(ctx *core.Ctx) *mandelView { return ctx.Priv().(*mandelView) }

func init() {
	core.Register(&core.Kernel{
		Name:        "mandel",
		Description: "Mandelbrot set with per-iteration zoom",
		Init: func(ctx *core.Ctx) error {
			ctx.SetPriv(newMandelView())
			return nil
		},
		Variants: map[string]core.ComputeFunc{
			"seq":       mandelSeq,
			"omp":       mandelOmp,
			"omp_tiled": mandelOmpTiled,
			"team":      mandelTeam,
			"task":      mandelTask,
		},
		DefaultVariant: "seq",
	})
}

// mandelSeq is the sequential loop of the paper's Fig. 1: every row of
// pixels, then zoom(). The rows go through row, which the parallel
// variants share, so their speedups over seq compare the same pixel code.
func mandelSeq(ctx *core.Ctx, nbIter int) int {
	dim := ctx.Dim()
	v := mandelState(ctx)
	return ctx.ForIterations(nbIter, func(int) bool {
		im := ctx.Cur()
		for y := 0; y < dim; y++ {
			v.row(im.Row(y), y, 0, dim, dim)
		}
		v.zoom()
		return true
	})
}

// mandelOmp is the incremental first parallelization of §II-A: a parallel
// for over the rows ("#pragma omp parallel for" before the y loop), each
// row one instrumented task.
func mandelOmp(ctx *core.Ctx, nbIter int) int {
	dim := ctx.Dim()
	v := mandelState(ctx)
	return ctx.ForIterations(nbIter, func(int) bool {
		im := ctx.Cur()
		ctx.Pool.ParallelFor(dim, ctx.Cfg.Schedule, func(y, worker int) {
			ctx.StartTile(worker)
			ctx.AddWork(worker, v.row(im.Row(y), y, 0, dim, dim))
			ctx.EndTile(0, y, dim, 1, worker)
		})
		v.zoom()
		return true
	})
}

// mandelOmpTiled is the paper's Fig. 2: collapse(2) over tiles with the
// configured scheduling policy, do_tile instrumented, zoom in a single
// block.
func mandelOmpTiled(ctx *core.Ctx, nbIter int) int {
	dim := ctx.Dim()
	v := mandelState(ctx)
	return ctx.ForIterations(nbIter, func(int) bool {
		im := ctx.Cur()
		ctx.Pool.ParallelForTiles(ctx.Grid, ctx.Cfg.Schedule, func(x, y, w, h, worker int) {
			ctx.StartTile(worker)
			ctx.AddWork(worker, mandelTile(v, im, dim, x, y, w, h))
			ctx.EndTile(x, y, w, h, worker)
		})
		v.zoom()
		return true
	})
}

// mandelTeam keeps the whole iteration loop inside one parallel region, the
// literal structure of Fig. 2 ("#pragma omp parallel" around the iteration
// loop, "#pragma omp for collapse(2)" inside, zoom under "#pragma omp
// single"). Iteration bracketing must happen inside the region, so this
// variant opens and closes each iteration in Single blocks rather than
// through ForIterations. Single's closing barrier publishes done to every
// member, so on cancellation they all leave at the same boundary.
func mandelTeam(ctx *core.Ctx, nbIter int) int {
	dim := ctx.Dim()
	v := mandelState(ctx)
	done := 0
	ctx.Pool.Team(func(tc *sched.TeamCtx) {
		for it := 1; it <= nbIter; it++ {
			tc.Single(func() {
				if ctx.StartIteration(it) {
					done = it
				}
			})
			if done < it {
				return
			}
			im := ctx.Cur()
			tc.ForTiles(ctx.Grid, ctx.Cfg.Schedule, func(x, y, w, h, worker int) {
				ctx.StartTile(worker)
				ctx.AddWork(worker, mandelTile(v, im, dim, x, y, w, h))
				ctx.EndTile(x, y, w, h, worker)
			})
			tc.Single(func() {
				v.zoom()
				ctx.EndIteration()
			})
		}
	})
	return done
}

// mandelTask expresses every tile as an independent task — no dependencies,
// pure fan-out — demonstrating the task engine on an embarrassingly
// parallel kernel.
func mandelTask(ctx *core.Ctx, nbIter int) int {
	dim := ctx.Dim()
	v := mandelState(ctx)
	return ctx.ForIterations(nbIter, func(int) bool {
		im := ctx.Cur()
		g := taskdep.New()
		for tile := 0; tile < ctx.Grid.Tiles(); tile++ {
			x, y, w, h := ctx.Grid.Coords(tile)
			g.AddTile("mandel", x, y, w, h, func(worker int) {
				ctx.AddWork(worker, mandelTile(v, im, dim, x, y, w, h))
			}, taskdep.Deps{})
		}
		if err := g.Run(ctx.Pool, taskObserver{ctx}); err != nil {
			return false
		}
		v.zoom()
		return true
	})
}

// taskObserver bridges the task engine to the framework instrumentation:
// every executed task is recorded as an instrumented span (monitoring and
// KindTask trace events), so the wavefront of Fig. 12 shows up in EASYVIEW.
type taskObserver struct{ ctx *core.Ctx }

func (o taskObserver) TaskStart(t *taskdep.Task, worker int) { o.ctx.StartTask(worker) }
func (o taskObserver) TaskEnd(t *taskdep.Task, worker int) {
	o.ctx.EndTask(t.X, t.Y, t.W, t.H, worker)
}
