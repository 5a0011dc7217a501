package kernels

// The asynchronous Abelian sandpile (EASYPAP's "asandPile"): unlike the
// synchronous variant, cells topple in place — a cell with 4 or more
// grains immediately sends one grain to each 4-neighbour. The Abelian
// property guarantees that the *stable* configuration is independent of
// the topple order, which makes the kernel a perfect stress test for
// parallel variants: sequential sweeps, the engine's parity-phased tiled
// schedules and even the synchronous sandpile all converge to the same
// board. The property tests exploit exactly this. Mid-run boards depend
// on the order, which is fixed per variant: seq sweeps the board row by
// row, the parallel variants sweep tile parity phases (stencil.go), so a
// variant's board does not depend on the thread count or the schedule.

func init() {
	(&stencil[uint32]{
		name:           "asandpile",
		description:    "asynchronous (in-place) Abelian sandpile",
		defaultVariant: "seq",
		lazyVariant:    "lazy_omp",
		inPlace:        true,
		palette:        sandPalette,
		seed:           sandSeed,
		rule:           asandStep,
	}).register()
}

// asandStep topples every unstable cell of the tile once, in place, and
// reports whether it toppled anything. Grains spill into the one-cell
// rim around the tile; the engine never runs two tiles whose rims meet
// at the same time. The absorbing world border is never toppled.
func asandStep(b *board[uint32], x, y, w, h int) bool {
	active := false
	dim, cells := b.dim, b.cur
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			if yy == 0 || yy == dim-1 || xx == 0 || xx == dim-1 {
				continue
			}
			idx := yy*dim + xx
			v := cells[idx]
			if v < 4 {
				continue
			}
			spill := v / 4
			cells[idx] = v % 4
			cells[idx-1] += spill
			cells[idx+1] += spill
			cells[idx-dim] += spill
			cells[idx+dim] += spill
			active = true
		}
	}
	return active
}
