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
	"encoding/binary"
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
	var diff uint64
	for yy := y; yy < y+h; yy++ {
		diff |= fireRow(b.rowOrZero(b.cur, yy-1), b.row(b.cur, yy), b.rowOrZero(b.cur, yy+1),
			b.row(b.next, yy), x, x+w)
	}
	return diff != 0
}

// fireRow computes cells [x0, x1) of one row into out, eight per word
// between the world's edge columns, and returns the OR of every cell's
// next^cur, as lifeRow does.
func fireRow(up, mid, dn, out []uint8, x0, x1 int) uint64 {
	le := binary.LittleEndian
	var diff uint64
	x := x0
	if x == 0 {
		diff |= fireCell(up, mid, dn, out, 0)
		x = 1
	}
	for end := min(x1, len(mid)-1); x+8 <= end; x += 8 {
		m := (*[10]uint8)(mid[x-1:])
		c := le.Uint64(m[1:])
		v := fireNext(c, le.Uint64(up[x:]), le.Uint64(dn[x:]), le.Uint64(m[0:]), le.Uint64(m[2:]))
		le.PutUint64(out[x:], v)
		diff |= v ^ c
	}
	for ; x < x1; x++ {
		diff |= fireCell(up, mid, dn, out, x)
	}
	return diff
}

// fireCell is the rule for the one cell x; beyond the world's side
// edges lies bare ground.
func fireCell(up, mid, dn, out []uint8, x int) uint64 {
	var left, right uint8
	if x > 0 {
		left = mid[x-1]
	}
	if x < len(mid)-1 {
		right = mid[x+1]
	}
	c := uint64(mid[x])
	v := fireNext(c, uint64(up[x]), uint64(dn[x]), uint64(left), uint64(right))
	out[x] = uint8(v)
	return v ^ c
}

// fireNext is the rule on the byte cells (0–3) of a word: a burning cell
// (2) adds 1 and turns to ash (3), a tree (1) adds 1 and ignites when a
// 4-neighbour burns, and nothing else moves. No byte exceeds 3, so no
// add carries into the next byte.
func fireNext(c, up, dn, left, right uint64) uint64 {
	return c + burningBits(c) + treeBits(c)&(burningBits(up)|burningBits(dn)|burningBits(left)|burningBits(right))
}

// burningBits sets bit 0 of each byte that holds fireBurning (bit 1 set,
// bit 0 clear).
func burningBits(x uint64) uint64 { return x >> 1 &^ x & lanes }

// treeBits sets bit 0 of each byte that holds fireTree (bit 0 set, bit 1
// clear).
func treeBits(x uint64) uint64 { return x &^ (x >> 1) & lanes }
