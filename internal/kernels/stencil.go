package kernels

// The stencil engine: life, fire, sandpile and asandpile are each a cell
// type, seed patterns, a palette and one per-tile rule. Everything else —
// the seq/omp_tiled/lazy/mpi_omp schedules, activity reporting for delta
// frames, halo rows, the band-aware refresh and the EZK1 state codec —
// is derived here, once, the way EASYPAP lets a student write only
// do_tile while the framework supplies tiling, scheduling and MPI
// plumbing (the SPM "subclass Game, implement rule" split).
//
// The rule contract: rule(b, x, y, w, h) computes the tile's cells and
// reports whether any of them changed (or, for the sandpiles, is still
// unstable). A double-buffered rule reads b.cur and writes every cell of
// the tile into b.next; the tilegrid no-copy invariant depends on that
// full write. An in-place rule (inPlace) reads and writes b.cur only and
// may add into the one-cell rim around its tile.
//
// Ghost rows live in the board. Under MPI a rank's band owns rows
// [band.Lo, band.Hi); a received boundary row is written into row
// band.Lo-1 or band.Hi of both buffers, so rules read plain neighbours
// and need no ghost-aware twin. Writing both buffers keeps the no-copy
// invariant whole: ghost rows are never computed locally, so the swap
// must find them equal on both sides, exactly like a skipped tile.
//
// In-place parallel schedules run each iteration's tiles in four phases
// by tile parity (tx%2, ty%2). Two tiles of one phase are at least one
// tile apart, so with tiles of 2+ cells on each side their rims never
// meet: plain adds are race-free and the board no longer depends on the
// thread count or the schedule.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"easypap/internal/core"
	"easypap/internal/img2d"
	"easypap/internal/mpi"
	"easypap/internal/sched"
	"easypap/internal/tilegrid"
)

// cell is the engine's one type parameter.
type cell interface{ uint8 | uint32 }

// stencil is what a kernel supplies.
type stencil[C cell] struct {
	name, description, defaultVariant string
	// lazyVariant names the frontier schedule ("lazy" or "lazy_omp").
	lazyVariant string
	// inPlace rules topple b.cur directly: no next buffer, parity phases
	// for the parallel schedules, no mpi_omp variant.
	inPlace bool
	// palette paints value v as palette[min(v, len(palette)-1)].
	palette []img2d.Pixel
	// seed fills b.cur from cfg.Arg and cfg.Seed (the whole world, also
	// under MPI, so every rank draws the same board).
	seed func(ctx *core.Ctx, b *board[C]) error
	rule func(b *board[C], x, y, w, h int) bool
	// rows, when set, replaces the cell serialization of halo rows.
	rows *rowCodec[C]
	// extra variants with their own compute function (life's bitpack).
	extra map[string]core.ComputeFunc
	// cells recycles board buffers from run to run, one list per board
	// size: init takes them, finalize hands them back.
	cells img2d.FreeList[C]
}

// board is the per-run state of a stencil kernel.
type board[C cell] struct {
	dim          int
	cur, next    []C // next is nil for in-place rules
	zero         []C // an all-zero row: what lies beyond the world edge
	tileW, tileH int
	// fr tracks which tiles the next iteration dispatches (lazy,
	// mpi_omp) and decides convergence (omp_tiled).
	fr   *tilegrid.Frontier
	band mpi.Band
	halo *mpi.Halo
	// phase holds the four parity lists of in-place dispatches (reused).
	phase [4][]int32
	all   []int32 // every tile, for in-place omp_tiled
	// aux is variant-private state derived from cur (life's packed
	// buffer); restoring a checkpoint drops it.
	aux any
}

func boardOf[C cell](ctx *core.Ctx) *board[C] { return ctx.Priv().(*board[C]) }

// row returns row y of buf.
func (b *board[C]) row(buf []C, y int) []C { return buf[y*b.dim : (y+1)*b.dim] }

// rowOrZero returns row y of buf, or the zero row outside the world.
func (b *board[C]) rowOrZero(buf []C, y int) []C {
	if y < 0 || y >= b.dim {
		return b.zero
	}
	return b.row(buf, y)
}

func (b *board[C]) swap() {
	if b.next != nil {
		b.cur, b.next = b.next, b.cur
	}
}

// register derives the kernel's variants, refresh and codec and adds it
// to the core registry.
func (s *stencil[C]) register() {
	variants := map[string]core.ComputeFunc{
		"seq":         s.seq,
		"omp_tiled":   s.ompTiled,
		s.lazyVariant: s.lazy,
	}
	if !s.inPlace {
		// mpi_omp is the lazy schedule plus the halo step (lazy itself
		// never sees a communicator: Config.Normalize rejects that).
		variants["mpi_omp"] = s.lazy
	}
	for name, f := range s.extra {
		variants[name] = f
	}
	core.Register(&core.Kernel{
		Name: s.name, Description: s.description, DefaultVariant: s.defaultVariant,
		Init: s.init, Refresh: s.refresh, Finalize: s.finalize, Variants: variants, Codec: s,
	})
}

func (s *stencil[C]) init(ctx *core.Ctx) error {
	dim := ctx.Dim()
	b := &board[C]{
		dim: dim, cur: s.cells.Get(dim * dim), zero: make([]C, dim),
		tileW: ctx.Cfg.TileW, tileH: ctx.Cfg.TileH,
		fr:   tilegrid.New(ctx.Grid),
		band: mpi.Band{Lo: 0, Hi: dim, Dim: dim},
	}
	if s.inPlace && ctx.Cfg.Variant != "seq" && (b.tileW < 2 || b.tileH < 2) {
		return fmt.Errorf("%s: parallel variants need tiles of at least 2x2 cells "+
			"(two 1-cell tiles of one parity phase would write the same rim cell)", s.name)
	}
	if ctx.Comm != nil {
		b.band = ctx.Band
		if b.band.Rows()%b.tileH != 0 {
			return fmt.Errorf("%s: band of %d rows not divisible by tile height %d",
				s.name, b.band.Rows(), b.tileH)
		}
		b.fr.Restrict(b.band.Lo/b.tileH, b.band.Hi/b.tileH)
	}
	// Promote the initial all-active marking: the first iteration computes
	// every (owned) tile, subsequent ones only the frontier.
	b.fr.Advance()
	if err := s.seed(ctx, b); err != nil {
		return err
	}
	if !s.inPlace {
		b.next = s.cells.Get(dim * dim)
		copy(b.next, b.cur)
	}
	ctx.SetPriv(b)
	s.refresh(ctx)
	return nil
}

// finalize hands the board's buffers back for the next run of this size.
func (s *stencil[C]) finalize(ctx *core.Ctx) {
	b, ok := ctx.Priv().(*board[C])
	if !ok {
		return // Init failed before the board existed
	}
	s.cells.Put(b.cur)
	s.cells.Put(b.next)
	b.cur, b.next = nil, nil
}

// refresh paints the board into the current image — the only moment a
// stencil kernel touches pixels. Under MPI it is collective: every rank
// paints its band, the master's straight into its image and every other
// rank's straight into the message that carries it there.
func (s *stencil[C]) refresh(ctx *core.Ctx) {
	b := boardOf[C](ctx)
	if ctx.Comm == nil {
		s.paint(ctx.Cur().Pixels(), b.cur)
		return
	}
	var full []img2d.Pixel
	if ctx.IsMaster() {
		full = ctx.Cur().Pixels()
	}
	// An error means the session is aborting; the run reports it.
	_ = ctx.Comm.GatherBands(0, b.band, full, func(dst []img2d.Pixel) {
		s.paint(dst, b.cur[b.band.Lo*b.dim:b.band.Hi*b.dim])
	})
}

func (s *stencil[C]) paint(dst []img2d.Pixel, cells []C) {
	top := C(len(s.palette) - 1)
	for i, v := range cells {
		dst[i] = s.palette[min(v, top)]
	}
}

func (s *stencil[C]) seq(ctx *core.Ctx, nbIter int) int {
	b := boardOf[C](ctx)
	return ctx.ForIterations(nbIter, func(int) bool {
		changed := s.rule(b, 0, 0, b.dim, b.dim)
		b.swap()
		return changed
	})
}

func (s *stencil[C]) ompTiled(ctx *core.Ctx, nbIter int) int {
	b := boardOf[C](ctx)
	body := s.tileBody(ctx, b, nil)
	return ctx.ForIterations(nbIter, func(int) bool {
		s.sweep(ctx, b, nil, body)
		// Eager: the frontier decides convergence (any change anywhere?),
		// never which tiles run.
		return b.fr.Advance() > 0
	})
}

// lazy dispatches only the frontier: tiles whose 3x3 tile neighbourhood
// changed at the previous iteration. Skipped tiles are neither visited
// nor instrumented, so the tiling window shows exactly which areas are
// computed (§III-D), and they need no copy (tilegrid no-copy invariant).
// Under MPI (mpi_omp) each iteration ends with one frontier-aware halo
// exchange: boundary rows and frontier flags travel only over active
// edges, and the convergence vote doubles as the edge agreement.
func (s *stencil[C]) lazy(ctx *core.Ctx, nbIter int) int {
	b := boardOf[C](ctx)
	if ctx.Comm != nil && b.halo == nil {
		b.halo = s.newHalo(ctx, b)
		// Initial ghost rows: every edge carries its boundary once so
		// iteration 1 computes against real neighbour values.
		if err := b.halo.Prime(); err != nil {
			return 0 // a distributed session is aborted by the world
		}
	}
	var marked atomic.Bool
	body := s.tileBody(ctx, b, &marked)
	return ctx.ForIterations(nbIter, func(int) bool {
		marked.Store(false)
		ctx.ReportActivity(b.fr.Count(), b.fr.Total(), b.fr.Active())
		if s.inPlace {
			ctx.WidenDirty() // the rule adds into undispatched neighbours' rims
		}
		s.sweep(ctx, b, b.fr.Active(), body)
		if b.halo == nil {
			return b.fr.Advance() > 0
		}
		cont, err := b.halo.Step(marked.Load())
		return err == nil && cont
	})
}

// tileBody is one tile's work in a parallel dispatch: the rule between
// the instrumentation hooks, and a changed tile marks its neighbourhood
// (and, when marked is set, this rank's "marked anything" flag).
func (s *stencil[C]) tileBody(ctx *core.Ctx, b *board[C], marked *atomic.Bool) sched.TileBody {
	return func(x, y, w, h, worker int) {
		ctx.StartTile(worker)
		if s.rule(b, x, y, w, h) {
			b.fr.MarkChanged(x/b.tileW, y/b.tileH)
			if marked != nil && !marked.Load() {
				marked.Store(true)
			}
		}
		ctx.EndTile(x, y, w, h, worker)
	}
}

// sweep runs body over tiles (nil: every tile) and ends the iteration's
// compute: double-buffered boards swap, in-place boards run the tiles in
// four parity phases.
func (s *stencil[C]) sweep(ctx *core.Ctx, b *board[C], tiles []int32, body sched.TileBody) {
	if !s.inPlace {
		if tiles == nil {
			ctx.Pool.ParallelForTiles(ctx.Grid, ctx.Cfg.Schedule, body)
		} else {
			ctx.Pool.ParallelForActive(ctx.Grid, tiles, ctx.Cfg.Schedule, body)
		}
		b.swap()
		return
	}
	if tiles == nil {
		if b.all == nil {
			b.all = make([]int32, ctx.Grid.Tiles())
			for i := range b.all {
				b.all[i] = int32(i)
			}
		}
		tiles = b.all
	}
	for p := range b.phase {
		b.phase[p] = b.phase[p][:0]
	}
	for _, t := range tiles {
		tx, ty := int(t)%ctx.Grid.TilesX, int(t)/ctx.Grid.TilesX
		p := tx&1 | ty&1<<1
		b.phase[p] = append(b.phase[p], t)
	}
	for _, phase := range b.phase {
		ctx.Pool.ParallelForActive(ctx.Grid, phase, ctx.Cfg.Schedule, body)
	}
}

// rowCodec is a halo row encoding.
type rowCodec[C cell] struct {
	pack   func(row []C) []byte
	unpack func(dst []C, row []byte)
}

// bitRows ships binary cells (0 dead, 1 alive) 8 per byte, LSB first:
// the life_bitpack layout lifted to the wire, ~8x smaller halos.
var bitRows = &rowCodec[uint8]{pack: mpi.PackRowBits, unpack: mpi.UnpackRowBits}

// newHalo wires the frontier-aware halo engine to the board: boundary
// rows leave in the cell serialization (or the kernel's row codec) and
// arrive in the ghost row of both buffers.
func (s *stencil[C]) newHalo(ctx *core.Ctx, b *board[C]) *mpi.Halo {
	rows := s.rows
	if rows == nil {
		rows = &rowCodec[C]{
			pack:   func(row []C) []byte { return appendCells(nil, row) },
			unpack: decodeCells[C],
		}
	}
	return &mpi.Halo{
		C: ctx.Comm, Band: b.band, Fr: b.fr, TileH: b.tileH,
		EncodeRow: func(y int) []byte { return rows.pack(b.row(b.cur, y)) },
		SetGhost: func(side int, row []byte) {
			y := b.band.Lo - 1
			if side > 0 {
				y = b.band.Hi
			}
			rows.unpack(b.row(b.cur, y), row)
			copy(b.row(b.next, y), b.row(b.cur, y))
		},
		OnStep: ctx.ReportHalo,
	}
}

// appendCells appends the little-endian bytes of cells: the one cell
// serialization behind EZK1 boards and halo rows.
func appendCells[C cell](out []byte, cells []C) []byte {
	switch cs := any(cells).(type) {
	case []uint8:
		return append(out, cs...)
	case []uint32:
		for _, c := range cs {
			out = binary.LittleEndian.AppendUint32(out, c)
		}
	}
	return out
}

// decodeCells reverses appendCells into dst, stopping at the shorter of
// the two.
func decodeCells[C cell](dst []C, data []byte) {
	switch d := any(dst).(type) {
	case []uint8:
		copy(d, data)
	case []uint32:
		for i := 0; i < len(d) && 4*i+4 <= len(data); i++ {
			d[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
	}
}

// State codec (core.StateCodec) for iteration-prefix checkpointing: the
// board plus the frontier bitset, so a run checkpointed after iteration
// k resumes with both the cells and the exact active-tile set the next
// iteration would have dispatched. The envelope is deliberately dumb —
// magic, board length, word count, then the payloads. Integrity (CRC)
// and identity (the prefix-hash key) belong to the EZSNAP1 record in
// internal/serve/store; this layer only rejects geometry mismatches so a
// snapshot can never be restored into a differently shaped run.

// kernelStateMagic heads every encoded kernel state.
const kernelStateMagic = "EZK1"

// EncodeState wraps the board and the frontier words in the envelope.
func (s *stencil[C]) EncodeState(ctx *core.Ctx) ([]byte, error) {
	if err := s.noBand(ctx); err != nil {
		return nil, err
	}
	b := boardOf[C](ctx)
	words := b.fr.Words()
	boardLen := binary.Size(C(0)) * len(b.cur)
	out := make([]byte, 0, len(kernelStateMagic)+16+boardLen+8*len(words))
	out = append(out, kernelStateMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(boardLen))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(words)))
	out = appendCells(out, b.cur)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// DecodeState unwraps an envelope, insisting the board is exactly this
// run's size (a mismatch means the snapshot belongs to another
// configuration and must not be applied).
func (s *stencil[C]) DecodeState(ctx *core.Ctx, data []byte) error {
	if err := s.noBand(ctx); err != nil {
		return err
	}
	b := boardOf[C](ctx)
	head := uint64(len(kernelStateMagic) + 16)
	if uint64(len(data)) < head || string(data[:len(kernelStateMagic)]) != kernelStateMagic {
		return fmt.Errorf("%s: kernel state: bad envelope header", s.name)
	}
	boardLen := binary.LittleEndian.Uint64(data[len(kernelStateMagic):])
	wordCount := binary.LittleEndian.Uint64(data[len(kernelStateMagic)+8:])
	if want := uint64(binary.Size(C(0)) * len(b.cur)); boardLen != want {
		return fmt.Errorf("%s: kernel state: board is %d bytes, this run needs %d", s.name, boardLen, want)
	}
	if size := head + boardLen + 8*wordCount; uint64(len(data)) != size {
		return fmt.Errorf("%s: kernel state: %d bytes, envelope declares %d", s.name, len(data), size)
	}
	words := make([]uint64, wordCount)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[head+boardLen+uint64(8*i):])
	}
	if err := b.fr.Restore(words); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	// Both buffers get the board: tiles outside the restored frontier are
	// never recomputed, and the no-copy invariant requires their cells to
	// be identical across the double buffer.
	decodeCells(b.cur, data[head:head+boardLen])
	if b.next != nil {
		copy(b.next, b.cur)
	}
	b.aux = nil
	return nil
}

// noBand rejects checkpointing of MPI band ranks: a band holds only its
// rows, so its encoded state is not the whole-grid state the snapshot
// key promises.
func (s *stencil[C]) noBand(ctx *core.Ctx) error {
	if ctx.Comm != nil {
		return fmt.Errorf("%s: cannot checkpoint one rank of a band decomposition", s.name)
	}
	return nil
}
