package kernels

// The Abelian sandpile (EASYPAP's "sable" kernel, listed in §II-A): every
// cell holds a number of sand grains; cells with 4 or more grains topple,
// sending one grain to each 4-neighbour. The synchronous formulation
// (next = cur%4 + incoming spills) is deterministic and
// order-independent, so all variants produce identical boards.

import (
	"easypap/internal/core"
	"easypap/internal/img2d"
)

// sandPalette maps 0..3 grains to a dark ramp and 4+ (still unstable) to
// bright red.
var sandPalette = []img2d.Pixel{
	img2d.Black,
	img2d.RGB(60, 60, 160),
	img2d.RGB(80, 160, 220),
	img2d.RGB(240, 240, 170),
	img2d.Red,
}

func init() {
	(&stencil[uint32]{
		name:           "sandpile",
		description:    "synchronous Abelian sandpile",
		defaultVariant: "seq",
		lazyVariant:    "lazy_omp",
		palette:        sandPalette,
		seed:           sandSeed,
		rule:           sandStep,
	}).register()
}

// sandSeed is EASYPAP's classic setup: every interior cell starts with 5
// grains (unstable), the one-cell border stays empty and absorbs grains.
// Grain counts are uint32: they can exceed 255 transiently with large
// initial piles.
func sandSeed(_ *core.Ctx, b *board[uint32]) error {
	for y := 1; y < b.dim-1; y++ {
		for x := 1; x < b.dim-1; x++ {
			b.cur[y*b.dim+x] = 5
		}
	}
	return nil
}

// sandStep computes the synchronous topple step for a tile, returning
// whether any cell in the tile is still unstable or changed — so a tile
// re-enters the lazy frontier exactly when the eager variants would keep
// iterating. Border cells (the absorbing rim) always stay zero.
func sandStep(b *board[uint32], x, y, w, h int) bool {
	var active uint32
	dim := b.dim
	for yy := y; yy < y+h; yy++ {
		// Rows sliced to length dim let the compiler drop most bounds
		// checks in the cell loop.
		out := b.next[yy*dim:][:dim]
		if yy == 0 || yy == dim-1 {
			clear(out[x : x+w])
			continue
		}
		if x == 0 {
			out[0] = 0
		}
		if x+w == dim {
			out[dim-1] = 0
		}
		up, mid, dn := b.cur[(yy-1)*dim:][:dim], b.cur[yy*dim:][:dim], b.cur[(yy+1)*dim:][:dim]
		for xx := max(x, 1); xx < min(x+w, dim-1); xx++ {
			c := mid[xx]
			v := c%4 + mid[xx-1]/4 + mid[xx+1]/4 + up[xx]/4 + dn[xx]/4
			out[xx] = v
			active |= (v ^ c) | v>>2
		}
	}
	return active != 0
}
