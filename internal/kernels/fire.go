package kernels

// Forest-fire percolation: a deterministic synchronous automaton born
// frontier-native. Cells are empty ground, trees, burning trees or ash; a
// burning tree turns to ash and ignites its 4-neighbour trees. All
// activity lives on the fire front — a one-cell-thick ring expanding
// through the forest — so the tile frontier starts at the ignition point,
// grows to the ring's tiles, and collapses to zero when the fire burns
// out. The kernel is nothing but a rule for the stencil engine
// (stencil.go), which derives its lazy, tiled and MPI variants.
//
// The density of the (seeded, deterministic) random forest puts the run
// on either side of the percolation threshold: dense forests burn wall to
// wall, sparse ones starve the fire early — two very different
// frontier-collapse curves from one kernel, a nice serving-demo workload.

import (
	"fmt"
	"math/rand"

	"easypap/internal/core"
	"easypap/internal/img2d"
)

func init() {
	(&stencil[uint8]{
		name:           "fire",
		description:    "forest-fire percolation on the tile frontier",
		defaultVariant: "lazy",
		lazyVariant:    "lazy",
		palette: []img2d.Pixel{
			img2d.RGB(24, 20, 12),   // empty: dark soil
			img2d.RGB(30, 140, 40),  // tree
			img2d.RGB(255, 120, 20), // burning
			img2d.RGB(70, 70, 74),   // ash
		},
		seed: fireSeed,
		rule: fireStep,
	}).register()
}

// Cell states (uint8).
const (
	fireEmpty   = 0 // bare ground: never changes
	fireTree    = 1 // flammable
	fireBurning = 2 // burns for exactly one iteration
	fireAsh     = 3 // burnt out: never changes again
)

// fireSeed grows the forest according to cfg.Arg:
//
//	"forest" — random trees at 65% density (above the percolation
//	           threshold), center tree ignited (default)
//	"sparse" — 45% density: the fire starves quickly
//	"full"   — every cell a tree, center ignited: the frontier is a
//	           clean expanding diamond
func fireSeed(ctx *core.Ctx, b *board[uint8]) error {
	density := 0.0
	switch ctx.Cfg.Arg {
	case "forest", "":
		density = 0.65
	case "sparse":
		density = 0.45
	case "full":
		density = 1.0
	default:
		return fmt.Errorf("fire: unknown pattern %q (have forest, sparse, full)", ctx.Cfg.Arg)
	}
	rng := rand.New(rand.NewSource(ctx.Cfg.Seed + 7))
	for i := range b.cur {
		// Always draw so the forest layout for a given seed does not
		// depend on the density.
		if rng.Float64() < density {
			b.cur[i] = fireTree
		}
	}
	c := b.dim / 2
	b.cur[c*b.dim+c] = fireBurning
	return nil
}

// fireStep advances every cell of the tile: burning → ash; a tree with a
// burning 4-neighbour ignites; everything else is inert. Beyond the world
// edge lies bare ground.
func fireStep(b *board[uint8], x, y, w, h int) bool {
	changed := false
	last := b.dim - 1
	for yy := y; yy < y+h; yy++ {
		up, mid, dn := b.rowOrZero(b.cur, yy-1), b.row(b.cur, yy), b.rowOrZero(b.cur, yy+1)
		out := b.row(b.next, yy)
		for xx := x; xx < x+w; xx++ {
			v := mid[xx]
			switch v {
			case fireBurning:
				v = fireAsh
			case fireTree:
				if up[xx] == fireBurning || dn[xx] == fireBurning ||
					(xx > 0 && mid[xx-1] == fireBurning) ||
					(xx < last && mid[xx+1] == fireBurning) {
					v = fireBurning
				}
			}
			if v != mid[xx] {
				changed = true
			}
			out[xx] = v
		}
	}
	return changed
}
