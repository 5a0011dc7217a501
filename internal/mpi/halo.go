package mpi

// Frontier-aware halo exchange: the per-iteration boundary protocol shared
// by the in-process mpi_omp kernels and the cluster's distributed shards
// (internal/serve). It fuses the three communication steps the original
// life MPI variant performed — ghost-row exchange, frontier-flag
// forwarding, convergence vote — into one protocol with a skip rule:
//
//   - After computing an iteration (and before Frontier.Advance), a rank
//     inspects its halo tile rows (tyLo-1 / tyHi). Marks there exist if
//     and only if a tile in the adjacent owned boundary row was marked,
//     which is the only way the boundary pixel row can have changed. No
//     marks ⇒ the neighbour's cached ghost row is still exact ⇒ the edge
//     is skipped entirely: no row bytes, no flags, no message.
//   - Whether an edge is active is the *sender's* knowledge, so ranks
//     agree through the convergence vote they must take anyway: everyone
//     reports (marked, sendUp, sendDown) to rank 0, which answers with
//     (continue, recvUp, recvDown). One gather-style round replaces the
//     old Allreduce and makes every skip decision symmetric.
//   - Active edges carry one combined packet: the boundary row in a
//     kernel-chosen encoding (binary-state kernels bit-pack, 8 cells per
//     byte) plus the bit-packed frontier flags for the neighbour's
//     boundary tile row.
//
// Convergence is unchanged: a rank's post-merge frontier is non-empty iff
// it marked a tile itself or a neighbour that marked one forwarded flags,
// so OR(marked) over ranks equals the old OR(post-merge frontier size>0).
// Sparse workloads therefore pay zero boundary communication in quiet
// regions — on a distributed world, quiet edges cost no HTTP requests at
// all — while producing byte-identical boards and iteration counts.

import (
	"fmt"
	"time"

	"easypap/internal/tilegrid"
)

// Halo exchange tags (reserved negative range, distinct from the
// collectives').
const (
	tagHaloUp   = -222 // packet travelling to the rank above (my top row)
	tagHaloDown = -223 // packet travelling to the rank below (my bottom row)
	tagHaloVote = -224 // (marked, sendUp, sendDown) to rank 0
	tagHaloPlan = -225 // (continue, recvUp, recvDown) from rank 0
)

// HaloPacket is one edge's combined payload: the sender's boundary pixel
// row (kernel-encoded — bit-packed for binary-state kernels) and the
// frontier flags of the receiver's adjacent boundary tile row.
type HaloPacket struct {
	Row   []byte
	Flags []bool
}

// Halo drives the frontier-aware boundary exchange for one rank. The
// kernel supplies the cell encoding; the engine owns the protocol, the
// skip rule, and the counters.
type Halo struct {
	C     *Comm
	Band  Band
	Fr    *tilegrid.Frontier
	TileH int

	// EncodeRow returns the wire bytes of absolute pixel row y of the
	// kernel's current (post-swap) buffer. The result must be a fresh
	// slice: messages transfer ownership.
	EncodeRow func(y int) []byte
	// SetGhost installs a neighbour's boundary row into the kernel's
	// ghost buffer; side < 0 is the row above the band, side > 0 below.
	SetGhost func(side int, row []byte)
	// OnStep, when non-nil, observes each exchange: message/skip/byte
	// deltas and the wall time spent in the protocol (including the
	// vote). This is how serving shards feed their per-node halo
	// counters and stage histograms.
	OnStep func(sent, skipped, bytes int64, d time.Duration)

	// Cumulative counters for this rank's run.
	Sent, Skipped, Bytes int64
}

// report accumulates one exchange's deltas and fires the observer.
func (h *Halo) report(sent, skipped, bytes int64, start time.Time) {
	h.Sent += sent
	h.Skipped += skipped
	h.Bytes += bytes
	if h.OnStep != nil {
		h.OnStep(sent, skipped, bytes, time.Since(start))
	}
}

// Prime performs the unconditional initial exchange: every existing edge
// carries its boundary row once so iteration 1 computes against real
// ghost values. Flags are not needed — the restricted frontier starts
// all-active.
func (h *Halo) Prime() error {
	start := time.Now()
	rank, size := h.C.Rank(), h.C.Size()
	up, down := rank-1, rank+1
	var sent, bytes int64
	if up >= 0 {
		pkt := HaloPacket{Row: h.EncodeRow(h.Band.Lo)}
		if err := h.C.Send(up, tagHaloUp, pkt); err != nil {
			return fmt.Errorf("mpi: halo prime: %w", err)
		}
		sent++
		bytes += int64(len(pkt.Row))
	}
	if down < size {
		pkt := HaloPacket{Row: h.EncodeRow(h.Band.Hi - 1)}
		if err := h.C.Send(down, tagHaloDown, pkt); err != nil {
			return fmt.Errorf("mpi: halo prime: %w", err)
		}
		sent++
		bytes += int64(len(pkt.Row))
	}
	if up >= 0 {
		if err := h.recvPacket(up, tagHaloDown, -1, -1); err != nil {
			return err
		}
	}
	if down < size {
		if err := h.recvPacket(down, tagHaloUp, +1, -1); err != nil {
			return err
		}
	}
	h.report(sent, 0, bytes, start)
	return nil
}

// Step runs the post-compute exchange for one iteration: call it after
// the kernel marked its changes and swapped buffers, before
// Frontier.Advance (Step advances the frontier itself after merging).
// marked reports whether this rank marked any tile this iteration. The
// returned bool is the global convergence vote: true means some rank is
// still active and iteration continues.
func (h *Halo) Step(marked bool) (bool, error) {
	start := time.Now()
	rank, size := h.C.Rank(), h.C.Size()
	up, down := rank-1, rank+1
	tyLo, tyHi := h.Band.Lo/h.TileH, h.Band.Hi/h.TileH

	upFlags := h.Fr.RowFlags(tyLo - 1) // nil at the world's top edge
	downFlags := h.Fr.RowFlags(tyHi)   // nil at the bottom edge
	sendUp := up >= 0 && anyFlag(upFlags)
	sendDown := down < size && anyFlag(downFlags)

	// Ship active edges immediately — sends never block on the receiver —
	// so packets overlap the vote round-trip.
	var sent, skipped, bytes int64
	if sendUp {
		pkt := HaloPacket{Row: h.EncodeRow(h.Band.Lo), Flags: upFlags}
		if err := h.C.Send(up, tagHaloUp, pkt); err != nil {
			return false, fmt.Errorf("mpi: halo send: %w", err)
		}
		sent++
		bytes += int64(len(pkt.Row) + (len(pkt.Flags)+7)/8)
	} else if up >= 0 {
		skipped++
	}
	if sendDown {
		pkt := HaloPacket{Row: h.EncodeRow(h.Band.Hi - 1), Flags: downFlags}
		if err := h.C.Send(down, tagHaloDown, pkt); err != nil {
			return false, fmt.Errorf("mpi: halo send: %w", err)
		}
		sent++
		bytes += int64(len(pkt.Row) + (len(pkt.Flags)+7)/8)
	} else if down < size {
		skipped++
	}

	cont, recvUp, recvDown, err := h.vote(marked, sendUp, sendDown)
	if err != nil {
		return false, err
	}
	if recvUp {
		if err := h.recvPacket(up, tagHaloDown, -1, tyLo); err != nil {
			return false, err
		}
	}
	if recvDown {
		if err := h.recvPacket(down, tagHaloUp, +1, tyHi-1); err != nil {
			return false, err
		}
	}
	h.Fr.Advance()
	h.report(sent, skipped, bytes, start)
	return cont, nil
}

// vote runs the combined convergence/edge-agreement round through rank 0:
// gather (marked, sendUp, sendDown), answer (continue, recvUp, recvDown).
// recvUp of rank r is sendDown of rank r-1, so both ends of every edge
// agree on whether a packet is in flight.
func (h *Halo) vote(marked, sendUp, sendDown bool) (cont, recvUp, recvDown bool, err error) {
	rank, size := h.C.Rank(), h.C.Size()
	if rank != 0 {
		if err := h.C.Send(0, tagHaloVote, []bool{marked, sendUp, sendDown}); err != nil {
			return false, false, false, fmt.Errorf("mpi: halo vote: %w", err)
		}
		got, _, err := h.C.Recv(0, tagHaloPlan)
		if err != nil {
			return false, false, false, fmt.Errorf("mpi: halo plan: %w", err)
		}
		plan, ok := got.([]bool)
		if !ok || len(plan) != 3 {
			return false, false, false, fmt.Errorf("mpi: malformed halo plan %T", got)
		}
		return plan[0], plan[1], plan[2], nil
	}

	ups := make([]bool, size)   // rank r sends to r-1
	downs := make([]bool, size) // rank r sends to r+1
	ups[0], downs[0] = sendUp, sendDown
	cont = marked
	for i := 1; i < size; i++ {
		got, from, err := h.C.Recv(AnySource, tagHaloVote)
		if err != nil {
			return false, false, false, fmt.Errorf("mpi: halo vote: %w", err)
		}
		v, ok := got.([]bool)
		if !ok || len(v) != 3 {
			return false, false, false, fmt.Errorf("mpi: malformed halo vote %T", got)
		}
		cont = cont || v[0]
		ups[from], downs[from] = v[1], v[2]
	}
	for r := 1; r < size; r++ {
		rUp := downs[r-1] // my upper neighbour sends its bottom row down to me
		rDown := r+1 < size && ups[r+1]
		if err := h.C.Send(r, tagHaloPlan, []bool{cont, rUp, rDown}); err != nil {
			return false, false, false, fmt.Errorf("mpi: halo plan: %w", err)
		}
	}
	return cont, false, size > 1 && ups[1], nil
}

// recvPacket receives one halo packet from src, installs the ghost row,
// and merges the forwarded frontier flags into tile row mergeTy (skipped
// when mergeTy < 0, e.g. during priming).
func (h *Halo) recvPacket(src, tag, side, mergeTy int) error {
	got, _, err := h.C.Recv(src, tag)
	if err != nil {
		return fmt.Errorf("mpi: halo from rank %d: %w", src, err)
	}
	pkt, ok := got.(HaloPacket)
	if !ok {
		return fmt.Errorf("mpi: rank %d sent %T where a halo packet was expected", src, got)
	}
	h.SetGhost(side, pkt.Row)
	if mergeTy >= 0 && pkt.Flags != nil {
		h.Fr.MergeRowFlags(mergeTy, pkt.Flags)
	}
	return nil
}

// anyFlag reports whether any flag is set.
func anyFlag(flags []bool) bool {
	for _, f := range flags {
		if f {
			return true
		}
	}
	return false
}

// PackRowBits bit-packs a row of binary cells (0 = dead, anything else =
// alive), 8 cells per byte LSB-first — the life_bitpack layout lifted to
// the wire, shrinking binary-state halo rows 8x.
func PackRowBits(cells []uint8) []byte {
	out := make([]byte, (len(cells)+7)/8)
	for i, c := range cells {
		if c != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// UnpackRowBits reverses PackRowBits into dst (len(dst) cells).
func UnpackRowBits(dst []uint8, packed []byte) {
	for i := range dst {
		if i/8 < len(packed) && packed[i/8]&(1<<(i%8)) != 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}
