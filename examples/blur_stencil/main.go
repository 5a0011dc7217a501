// Blur stencil optimization: the paper's §III-B story end to end.
//
// Students first write a tiled blur where every pixel pays boundary
// checks; the heat map reveals that only border tiles need them; splitting
// border from inner tiles (branch-free core) makes the kernel several
// times faster. This example runs both variants with tracing, prints the
// heat observations and the EASYVIEW comparison report (Fig. 10), and
// verifies bit-identical output.
//
//	go run ./examples/blur_stencil
package main

import (
	"fmt"
	"log"
	"time"

	"easypap/internal/core"
	"easypap/internal/ezview"
	_ "easypap/internal/kernels"
	"easypap/internal/sched"
)

func main() {
	const dim, iterations, tile = 1024, 5, 32

	run := func(variant string) *core.RunOutput {
		out, err := core.Run(core.Config{
			Kernel: "blur", Variant: variant, Dim: dim,
			TileW: tile, TileH: tile, Iterations: iterations,
			NoDisplay: true, Monitoring: true, HeatMode: true,
			TracePath: "out/blur_" + variant + ".evt",
			Schedule:  sched.NonmonotonicPolicy,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("blur/%-14s: %s\n", variant, out.Result)
		return out
	}

	base := run("omp_tiled")
	opt := run("omp_tiled_opt")

	if n := base.Final.DiffCount(opt.Final); n != 0 {
		log.Fatalf("optimized blur differs on %d pixels", n)
	}
	fmt.Println("both variants produce identical images ✓")
	fmt.Printf("whole-kernel speedup: %.2fx\n\n",
		float64(base.WallTime)/float64(opt.WallTime))

	// Heat-map observation (Fig. 9b): border tiles vs inner tiles.
	iters := opt.Monitors[0].Iterations()
	last := iters[len(iters)-1]
	grid, err := sched.NewTileGrid(dim, tile, tile)
	if err != nil {
		log.Fatal(err)
	}
	var borderMean, innerMean time.Duration
	var borderN, innerN int
	for _, t := range last.Tiles {
		if grid.IsBorder(grid.TileAt(int(t.X), int(t.Y))) {
			borderMean += t.Duration()
			borderN++
		} else {
			innerMean += t.Duration()
			innerN++
		}
	}
	borderMean /= time.Duration(borderN)
	innerMean /= time.Duration(innerN)
	fmt.Printf("heat map: border tiles %v, inner tiles %v (%.1fx)\n",
		borderMean, innerMean, float64(borderMean)/float64(innerMean))

	// EASYVIEW trace comparison (Fig. 10).
	rep, err := ezview.CompareReport(base.Trace, opt.Trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- easyview compare out/blur_omp_tiled.evt out/blur_omp_tiled_opt.evt ---")
	fmt.Println(rep)

	// Gantt charts of both runs for visual inspection.
	if err := ezview.New(base.Trace).SaveGanttSVG("out/blur_base_gantt.svg",
		ezview.GanttOptions{Caption: "blur omp_tiled (uniform tiles)"}); err != nil {
		log.Fatal(err)
	}
	if err := ezview.New(opt.Trace).SaveGanttSVG("out/blur_opt_gantt.svg",
		ezview.GanttOptions{Caption: "blur omp_tiled_opt (border/inner split)"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Gantt charts saved to out/blur_{base,opt}_gantt.svg")
}
