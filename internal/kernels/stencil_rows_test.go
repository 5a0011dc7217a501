package kernels

// The row routines of life, fire and sandpile against the one-cell-at-a-
// time rules they replaced, kept here verbatim as the reference, and one
// quiet single-thread benchmark per rule.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"easypap/internal/core"
)

// refLifeStep is the per-cell B3/S23 loop lifeStep replaced.
func refLifeStep(b *board[uint8], x, y, w, h int) bool {
	changed := false
	last := b.dim - 1
	for yy := y; yy < y+h; yy++ {
		up, mid, dn := b.rowOrZero(b.cur, yy-1), b.row(b.cur, yy), b.rowOrZero(b.cur, yy+1)
		out := b.row(b.next, yy)
		for xx := x; xx < x+w; xx++ {
			n := up[xx] + dn[xx]
			if xx > 0 {
				n += up[xx-1] + mid[xx-1] + dn[xx-1]
			}
			if xx < last {
				n += up[xx+1] + mid[xx+1] + dn[xx+1]
			}
			v := uint8(0)
			if n == 3 || n == 2 && mid[xx] != 0 {
				v = 1
			}
			if v != mid[xx] {
				changed = true
			}
			out[xx] = v
		}
	}
	return changed
}

// refFireStep is the per-cell switch fireStep replaced.
func refFireStep(b *board[uint8], x, y, w, h int) bool {
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

// refSandStep is the per-cell topple loop sandStep replaced.
func refSandStep(b *board[uint32], x, y, w, h int) bool {
	active := false
	dim := b.dim
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			idx := yy*dim + xx
			if yy == 0 || yy == dim-1 || xx == 0 || xx == dim-1 {
				b.next[idx] = 0
				continue
			}
			v := b.cur[idx] % 4
			v += b.cur[idx-1]/4 + b.cur[idx+1]/4 + b.cur[idx-dim]/4 + b.cur[idx+dim]/4
			b.next[idx] = v
			if v != b.cur[idx] || v >= 4 {
				active = true
			}
		}
	}
	return active
}

// rowCase is one rule under test: the reference, a draw of a random cell
// of the kernel's domain and of a mostly quiet one, and a value the rule
// never writes.
type rowCase[C cell] struct {
	rule, ref     func(b *board[C], x, y, w, h int) bool
	random, quiet func(rng *rand.Rand) C
	unwritten     C
}

// TestStencilRowsMatchCellRule checks every segment [x, x+w) of the
// first, an inner and the last row of every board side from 1 to 40, and
// multi-row tiles of a band whose ghost rows hold random rows, against
// the reference rule: the same next cells and the same changed flag. The
// next buffer starts filled with a value no rule writes, so a skipped
// cell shows. Each board is drawn twice: uniformly over the kernel's cell
// domain, and mostly steady, so that segments report both flags.
func TestStencilRowsMatchCellRule(t *testing.T) {
	t.Run("life", func(t *testing.T) {
		checkRows(t, rowCase[uint8]{
			rule: lifeStep, ref: refLifeStep,
			random:    func(rng *rand.Rand) uint8 { return uint8(rng.Intn(2)) },
			quiet:     func(rng *rand.Rand) uint8 { return uint8(rng.Intn(16) / 15) },
			unwritten: 0xaa,
		})
	})
	t.Run("fire", func(t *testing.T) {
		checkRows(t, rowCase[uint8]{
			rule: fireStep, ref: refFireStep,
			random: func(rng *rand.Rand) uint8 { return uint8(rng.Intn(4)) },
			quiet: func(rng *rand.Rand) uint8 {
				if rng.Intn(32) == 0 {
					return fireBurning
				}
				return [3]uint8{fireEmpty, fireTree, fireAsh}[rng.Intn(3)]
			},
			unwritten: 0xaa,
		})
	})
	t.Run("sandpile", func(t *testing.T) {
		checkRows(t, rowCase[uint32]{
			rule: sandStep, ref: refSandStep,
			random: func(rng *rand.Rand) uint32 { return uint32(rng.Intn(41)) },
			quiet: func(rng *rand.Rand) uint32 {
				if rng.Intn(32) == 0 {
					return uint32(4 + rng.Intn(37))
				}
				return uint32(rng.Intn(4))
			},
			unwritten: 0xffffffff,
		})
	})
}

func checkRows[C cell](t *testing.T, rc rowCase[C]) {
	rng := rand.New(rand.NewSource(1))
	for dim := 1; dim <= 40; dim++ {
		for _, draw := range []func(*rand.Rand) C{rc.random, rc.quiet} {
			cur := make([]C, dim*dim)
			for i := range cur {
				cur[i] = draw(rng)
			}
			got := &board[C]{dim: dim, cur: cur, next: make([]C, dim*dim), zero: make([]C, dim)}
			want := &board[C]{dim: dim, cur: cur, next: make([]C, dim*dim), zero: make([]C, dim)}
			// check runs one tile through both rules and compares the
			// tile's whole rows, so a stray write beside the tile shows too.
			check := func(x, y, w, h int) {
				gotRows, wantRows := got.next[y*dim:(y+h)*dim], want.next[y*dim:(y+h)*dim]
				for i := range gotRows {
					gotRows[i], wantRows[i] = rc.unwritten, rc.unwritten
				}
				gotFlag, wantFlag := rc.rule(got, x, y, w, h), rc.ref(want, x, y, w, h)
				if gotFlag != wantFlag || !slices.Equal(gotRows, wantRows) {
					t.Fatalf("dim %d, tile x=%d y=%d w=%d h=%d: changed %v, want %v\nrows %v\nwant %v",
						dim, x, y, w, h, gotFlag, wantFlag, gotRows, wantRows)
				}
			}
			for _, y := range []int{0, dim / 2, dim - 1} {
				for x := 0; x < dim; x++ {
					for w := 1; x+w <= dim; w++ {
						check(x, y, w, 1)
					}
				}
			}
			// A band [lo, hi) with both ghost rows inside the board: the
			// rules read them as plain rows.
			if dim >= 3 {
				for range 8 {
					lo := 1 + rng.Intn(dim-2)
					hi := lo + 1 + rng.Intn(dim-1-lo)
					x := rng.Intn(dim)
					check(x, lo, 1+rng.Intn(dim-x), hi-lo)
				}
			}
		}
	}
}

// BenchmarkStencilRules times seq runs of the life, fire and sandpile
// rules on one thread — the whole core.Run, seeding and painting
// included — and reports nanoseconds per computed cell. Served rates move
// with whatever runs beside them; this one runs alone.
//
//	go test -run '^$' -bench BenchmarkStencilRules -count 5 ./internal/kernels/
func BenchmarkStencilRules(b *testing.B) {
	for _, s := range []struct {
		kernel, arg string
		dim, iters  int
	}{
		{"life", "random", 128, 80},
		{"life", "random", 256, 20},
		{"life", "diag", 128, 80},
		{"fire", "forest", 256, 64},
		{"sandpile", "", 128, 200},
		{"sandpile", "", 256, 67},
	} {
		name := fmt.Sprintf("%s/%s/%d/%d", s.kernel, s.arg, s.dim, s.iters)
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{Kernel: s.kernel, Variant: "seq", Arg: s.arg, Dim: s.dim,
				TileW: s.dim, TileH: s.dim, Iterations: s.iters, Threads: 1, NoDisplay: true}
			var cells int64
			for i := 0; i < b.N; i++ {
				out, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cells += int64(out.Result.Iterations) * int64(s.dim*s.dim)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
		})
	}
}
