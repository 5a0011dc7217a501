package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"easypap/internal/gfx"
	"easypap/internal/img2d"
)

// FrameHub is a bounded broadcast hub for one job's encoded frame stream.
//
// The run loop publishes records (via hubSink); any number of subscribers
// read them, each through an independent cursor. The hub keeps a bounded
// ring of records — bounded in records and bytes, not stream length — so
// a long-running job cannot pin its whole history in memory. A subscriber
// that falls off the back of the ring (slow or stalled) is skipped
// forward to the latest keyframe and counted, instead of stalling the
// writer or pinning evicted records: per-subscriber backpressure never
// propagates to the compute loop or to other subscribers.
//
// Every record carries its full-frame encoding, and optionally a delta
// encoding (dirty-tile patch, see gfx/delta.go). A subscriber chooses a
// gfx.StreamFormat at Subscribe time: FormatFull readers get the
// golden-pinned EZFRAME stream; FormatDelta readers get EZFRAME keyframes
// with EZDELTA records in between. Delta readers are only handed a
// window's records once synced on one of its keyframes — after a
// drop-to-keyframe they silently skip delta records until the window's
// next keyframe.
type FrameHub struct {
	opts HubOptions

	mu       sync.Mutex
	notify   chan struct{} // closed and replaced on every publish/close
	ring     []hubRecord   // ring[i] has sequence firstSeq+i
	firstSeq uint64
	nextSeq  uint64
	bytes    int64 // sum of encoded sizes in ring
	closed   bool
}

// hubRecord is one published frame record.
type hubRecord struct {
	window string
	key    bool   // independently decodable in a delta stream
	full   []byte // EZFRAME wire bytes
	delta  []byte // EZDELTA wire bytes, nil for keyframes
}

// HubOptions bounds and tunes a FrameHub. The zero value gets defaults.
type HubOptions struct {
	// MaxRecords bounds the ring length (default 1024 — large enough that
	// a short job's full stream stays replayable for late subscribers).
	MaxRecords int
	// MaxBytes bounds the summed encoded size of the ring (default
	// 64 MiB).
	MaxBytes int64
	// KeyframeEvery is the per-window keyframe cadence of the delta
	// encoding: one keyframe every n frames (default 32). The first frame
	// of a window is always a keyframe.
	KeyframeEvery int
	// Stats, when non-nil, receives the hub's counters (shared across
	// hubs: the manager aggregates all jobs into one HubStats).
	Stats *HubStats
}

func (o HubOptions) withDefaults() HubOptions {
	if o.MaxRecords <= 0 {
		o.MaxRecords = 1024
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	if o.KeyframeEvery <= 0 {
		o.KeyframeEvery = 32
	}
	return o
}

// HubStats aggregates frame-hub counters across hubs. All fields are
// atomics sampled by /v1/stats and /metrics.
type HubStats struct {
	Subscribers    atomic.Int64 // currently attached subscribers (gauge)
	DroppedToKey   atomic.Int64 // subscriber catch-ups that skipped records
	PostCloseDrops atomic.Int64 // publishes dropped because the hub was closed
	FullBytes      atomic.Int64 // full-frame encoded bytes published
	DeltaBytes     atomic.Int64 // bytes a delta subscriber receives instead
}

// ErrHubClosed is returned by Publish after Close: the run loop must not
// produce frames readers already saw EOF for.
var ErrHubClosed = errors.New("serve: frame hub closed")

// NewFrameHub returns an empty open hub.
func NewFrameHub(opts HubOptions) *FrameHub {
	return &FrameHub{opts: opts.withDefaults(), notify: make(chan struct{})}
}

// Publish appends one record to the ring, evicting from the front to keep
// the configured bounds, and wakes all subscribers. delta may be nil (the
// record then costs delta readers its full encoding too). Publishing on a
// closed hub drops the record, counts it, and returns ErrHubClosed.
func (h *FrameHub) Publish(window string, key bool, full, delta []byte) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		if s := h.opts.Stats; s != nil {
			s.PostCloseDrops.Add(1)
		}
		return ErrHubClosed
	}
	h.ring = append(h.ring, hubRecord{window: window, key: key, full: full, delta: delta})
	h.nextSeq++
	h.bytes += int64(len(full) + len(delta))
	for (len(h.ring) > h.opts.MaxRecords || h.bytes > h.opts.MaxBytes) && len(h.ring) > 1 {
		ev := h.ring[0]
		h.bytes -= int64(len(ev.full) + len(ev.delta))
		h.ring[0] = hubRecord{}
		h.ring = h.ring[1:]
		h.firstSeq++
	}
	close(h.notify)
	h.notify = make(chan struct{})
	h.mu.Unlock()
	if s := h.opts.Stats; s != nil {
		s.FullBytes.Add(int64(len(full)))
		if delta != nil {
			s.DeltaBytes.Add(int64(len(delta)))
		} else {
			s.DeltaBytes.Add(int64(len(full)))
		}
	}
	return nil
}

// Close marks the stream complete and wakes all subscribers; they drain
// the ring and then see io.EOF. Close is idempotent.
func (h *FrameHub) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.notify)
		h.notify = make(chan struct{})
	}
	h.mu.Unlock()
}

// Subscribe attaches a new cursor positioned at the oldest retained
// record. The reader's Read unblocks with ctx.Err() when ctx is canceled
// (a disconnected HTTP client no longer parks a goroutine until job end).
// The caller must Close the reader to release its subscriber slot.
func (h *FrameHub) Subscribe(ctx context.Context, format gfx.StreamFormat) *HubReader {
	if s := h.opts.Stats; s != nil {
		s.Subscribers.Add(1)
	}
	h.mu.Lock()
	seq := h.firstSeq
	h.mu.Unlock()
	return &HubReader{
		h:      h,
		ctx:    ctx,
		format: format,
		seq:    seq,
		synced: make(map[string]bool),
	}
}

// HubReader is one subscriber's cursor. It implements io.ReadCloser;
// Read returns io.EOF only after the hub closed and the cursor drained.
type HubReader struct {
	h      *FrameHub
	ctx    context.Context
	format gfx.StreamFormat
	seq    uint64          // next sequence number to deliver
	synced map[string]bool // delta format: windows synced on a keyframe
	cur    []byte          // undelivered tail of the current record
	err    error           // sticky terminal error
	closed bool
}

// Read implements io.Reader.
func (r *HubReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(r.cur) == 0 {
		rec, err := r.next()
		if err != nil {
			r.err = err
			return 0, err
		}
		r.cur = rec
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// next blocks until a deliverable record is available and returns its
// encoding in the subscriber's format.
func (r *HubReader) next() ([]byte, error) {
	h := r.h
	for {
		h.mu.Lock()
		if r.seq < h.firstSeq {
			// Fell off the back of the ring: skip forward to the latest
			// sync point rather than the oldest survivor — a stalled viewer
			// wants "now", not a doomed chase through the backlog.
			r.resyncLocked()
		}
		for r.seq < h.nextSeq {
			rec := &h.ring[r.seq-h.firstSeq]
			r.seq++
			if enc, ok := r.deliverable(rec); ok {
				h.mu.Unlock()
				return enc, nil
			}
		}
		if h.closed {
			h.mu.Unlock()
			return nil, io.EOF
		}
		notify := h.notify
		h.mu.Unlock()
		select {
		case <-notify:
		case <-r.ctx.Done():
			return nil, r.ctx.Err()
		}
	}
}

// resyncLocked repositions a lapped cursor at the newest record that can
// restart its stream (for delta readers, the newest keyframe; for full
// readers, the newest record) and resets delta sync state.
func (r *HubReader) resyncLocked() {
	h := r.h
	if s := h.opts.Stats; s != nil {
		s.DroppedToKey.Add(1)
	}
	target := h.firstSeq
	if r.format == gfx.FormatDelta {
		clear(r.synced)
		for i := len(h.ring) - 1; i >= 0; i-- {
			if h.ring[i].key {
				target = h.firstSeq + uint64(i)
				break
			}
		}
	} else if len(h.ring) > 0 {
		target = h.nextSeq - 1
	}
	r.seq = target
}

// deliverable returns the record's bytes in the reader's format, or false
// when the record must be skipped (a delta for a window not yet synced).
func (r *HubReader) deliverable(rec *hubRecord) ([]byte, bool) {
	if r.format != gfx.FormatDelta {
		return rec.full, true
	}
	if rec.key {
		r.synced[rec.window] = true
		return rec.full, true
	}
	if !r.synced[rec.window] || rec.delta == nil {
		// No delta encoding (e.g. a monitor window frame or an eager
		// kernel's frame): it is only safe to show when synced, and it is
		// its own sync point only if flagged key. Non-key records without a
		// delta carry the full encoding for synced readers.
		if r.synced[rec.window] && rec.delta == nil {
			return rec.full, true
		}
		return nil, false
	}
	return rec.delta, true
}

// Close releases the subscriber slot. Subsequent Reads fail.
func (r *HubReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.err == nil {
		r.err = errors.New("serve: hub reader closed")
	}
	if s := r.h.opts.Stats; s != nil {
		s.Subscribers.Add(-1)
	}
	return nil
}

// hubSink adapts a FrameHub to the run loop's gfx.FrameSink (and
// gfx.DirtySink): it encodes each frame once into its wire records and
// publishes them. For dirty-frame deliveries outside the keyframe cadence
// it additionally encodes the EZDELTA patch, unless the patch would not
// actually be smaller than the keyframe.
//
// The kernel's dirty set is its dispatch frontier — every tile it
// *visited*, i.e. the 3x3 tile neighbourhood of last iteration's changes.
// Most visited tiles end up unchanged, so the sink keeps the previously
// published image per window and narrows the patch to tiles whose pixels
// actually differ (the diff only scans the dispatched tiles, O(active)).
// Each window's previous-frame buffer is allocated once and overwritten
// after every publish.
type hubSink struct {
	h *FrameHub

	mu     sync.Mutex // MPI ranks share the sink via core's lockedSink; be safe anyway
	counts map[string]int
	prev   map[string]*img2d.Image // last published frame per window
}

func newHubSink(h *FrameHub) *hubSink {
	return &hubSink{h: h, counts: make(map[string]int), prev: make(map[string]*img2d.Image)}
}

// Frame implements gfx.FrameSink: a full frame with no dirty information
// is always a keyframe.
func (s *hubSink) Frame(window string, iter int, img *img2d.Image) error {
	return s.frame(window, iter, img, nil)
}

// FrameDirty implements gfx.DirtySink.
func (s *hubSink) FrameDirty(window string, iter int, img *img2d.Image, dirty *gfx.TileSet) error {
	return s.frame(window, iter, img, dirty)
}

func (s *hubSink) frame(window string, iter int, img *img2d.Image, dirty *gfx.TileSet) error {
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		return err
	}
	full, err := gfx.EncodeFrameRecord(window, iter, buf.Bytes())
	if err != nil {
		return err
	}

	// The lock spans the diff against prev and the copy into it.
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.counts[window]
	s.counts[window]++
	prev := s.prev[window]

	every := s.h.opts.KeyframeEvery
	key := dirty == nil || prev == nil || n == 0 || n%every == 0
	var delta []byte
	if !key {
		changed := changedTiles(img, prev, dirty)
		payload, err := gfx.EncodeDelta(img, changed)
		if err != nil {
			return err
		}
		rec, err := gfx.EncodeDeltaRecord(window, iter, payload)
		if err != nil {
			return err
		}
		if len(rec) < len(full) {
			delta = rec
		} else {
			key = true // the patch is no cheaper; keyframe instead
		}
	}
	if prev == nil {
		s.prev[window] = img.Clone()
	} else {
		copy(prev.Pixels(), img.Pixels())
	}
	return s.h.Publish(window, key, full, delta)
}

// changedTiles narrows a dispatch frontier to the tiles whose pixels
// actually differ between prev and img. Pixels outside the dispatched
// tiles are unchanged by the frontier no-copy invariant, so the scan
// touches dispatched tiles only.
func changedTiles(img, prev *img2d.Image, dirty *gfx.TileSet) *gfx.TileSet {
	out := &gfx.TileSet{TilesX: dirty.TilesX, TilesY: dirty.TilesY,
		TileW: dirty.TileW, TileH: dirty.TileH}
	for _, t := range dirty.Tiles {
		tx, ty := int(t)%dirty.TilesX, int(t)/dirty.TilesX
		x0, y0 := tx*dirty.TileW, ty*dirty.TileH
	scan:
		for y := y0; y < y0+dirty.TileH; y++ {
			a, b := img.Row(y)[x0:x0+dirty.TileW], prev.Row(y)[x0:x0+dirty.TileW]
			for i := range a {
				if a[i] != b[i] {
					out.Tiles = append(out.Tiles, t)
					break scan
				}
			}
		}
	}
	return out
}

// Close implements gfx.FrameSink. The hub itself is closed by the job's
// terminal path (manager.finish), not by the sink: the sink closing only
// means the run loop stopped rendering.
func (s *hubSink) Close() error { return nil }
