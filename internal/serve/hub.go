package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"easypap/internal/gfx"
	"easypap/internal/img2d"
)

// FrameHub is a bounded broadcast hub for one job's encoded frame stream.
//
// The run loop's frames become records through hubSink, whose encoders
// publish them in frame order; any number of subscribers read them, each
// through an independent cursor. The hub keeps a bounded
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
	parked   []chan struct{} // wake channels of the readers parked since the last wake-up
	ring     []hubRecord     // ring[i] has sequence firstSeq+i
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
	return &FrameHub{opts: opts.withDefaults()}
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
	h.wakeLocked()
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
		h.wakeLocked()
	}
	h.mu.Unlock()
}

// wakeLocked wakes every parked reader and empties the parked list. Each
// reader parks on a channel of its own, made once, so a publish allocates
// nothing to wake them.
func (h *FrameHub) wakeLocked() {
	for i, wake := range h.parked {
		select {
		case wake <- struct{}{}:
		default: // already signaled
		}
		h.parked[i] = nil
	}
	h.parked = h.parked[:0]
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
	wake   chan struct{}   // signaled when the hub publishes or closes
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
		if r.wake == nil {
			r.wake = make(chan struct{}, 1)
		}
		h.parked = append(h.parked, r.wake)
		h.mu.Unlock()
		select {
		case <-r.wake:
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
// gfx.DirtySink). The run loop pays for a copy of each frame and, off
// the keyframe cadence, for its EZDELTA patch; helper goroutines
// PNG-encode the frames and publish the records strictly in the order
// the frames arrived (DESIGN.md §13):
//
//   - Each frame is copied, on the run loop, into a spare copy of the
//     sink's or one leased from img2d's free lists. The copy is both the
//     encoder's input and the window's previous frame, which the next
//     frame of the window is diffed against; it is a spare again once
//     both are done with it, and Close hands the spares back.
//   - At most GOMAXPROCS frames are handed off and not yet published,
//     and their copies hold at most maxInflightBytes (a frame larger
//     than that goes alone). The run loop waits when either bound is
//     reached.
//   - Each window's first frame is encoded and published inline, so a
//     viewer waiting for a job's first frame does not wait behind the
//     encodes of later ones.
//   - The records are those of a one-frame-at-a-time encode: the same
//     encoders, the same previous frame, the same keyframe rule (a patch
//     is sent only when its record is shorter than the full one).
//   - The first encode or publish error (a hub closed under the sink
//     refuses the record) is sticky: later frames are dropped, and the
//     next Frame call or Close returns it.
//
// Close waits until every accepted frame is published, or dropped
// after an error, and stops the helpers. Its owner calls it, whether
// or not the run succeeded, before it closes the hub: viewers then see
// EOF after the last record. The hub itself is closed by the job's
// terminal path (manager.finish), not by the sink.
//
// The kernel's dirty set is its dispatch frontier — every tile it
// *visited*, i.e. the 3x3 tile neighbourhood of last iteration's changes.
// Most visited tiles end up unchanged, so the patch is narrowed to tiles
// whose pixels actually differ from the previous frame (the diff only
// scans the dispatched tiles, O(active)).
type hubSink struct {
	h *FrameHub

	mu       sync.Mutex // the run loop's side; MPI ranks share the sink via core's lockedSink
	counts   map[string]int
	prev     map[string]*frameCopy // last frame per window
	todo     chan encodeJob        // to the encoders
	encoders int                   // encoders started: no more than frames ever in flight
	wg       sync.WaitGroup        // the encoders
	closed   bool

	pmu     sync.Mutex   // the encoders' side
	landed  sync.Cond    // on pmu: a record was published or dropped
	pending []encoded    // encoded, not yet published; seq % len(pending)
	handed  uint64       // sequence number of the next hand-off
	next    uint64       // sequence number of the next record to publish
	bytes   int          // bytes of the copies handed off and not yet published
	spare   []*frameCopy // copies no one reads
	err     error        // the first encode or publish error
}

// maxInflightBytes bounds the frame copies handed to the encoders and
// not yet published: four 1024² frames, or 256 of 128².
const maxInflightBytes = 16 << 20

// frameCopy is the sink's copy of one frame. The encoder of the frame
// and the window's prev slot each hold a reference; the last to let go
// makes it a spare.
type frameCopy struct {
	img  *img2d.Image
	refs int // on pmu
}

// encodeJob is one frame handed to the encoders.
type encodeJob struct {
	seq    uint64
	window string
	iter   int
	frame  *frameCopy
	delta  []byte // the EZDELTA record, nil for a keyframe whatever its size
}

// encoded is a frame's records waiting for their turn to publish.
type encoded struct {
	done        bool
	window      string
	full, delta []byte
	size        int // bytes of the frame's copy
	err         error
}

// pngScratch holds the buffers PNG encodes write into, one per encode
// at work: the EZFRAME record built from it is then the encode's only
// allocation.
var pngScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errSinkClosed is returned by a frame delivered after Close.
var errSinkClosed = errors.New("serve: frame sink closed")

func newHubSink(h *FrameHub) *hubSink {
	s := &hubSink{h: h, counts: make(map[string]int), prev: make(map[string]*frameCopy),
		pending: make([]encoded, runtime.GOMAXPROCS(0))}
	s.landed.L = &s.pmu
	return s
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSinkClosed
	}
	if err := s.failed(); err != nil {
		return err
	}
	n := s.counts[window]
	s.counts[window]++
	prev := s.prev[window]

	var delta []byte
	if dirty != nil && prev != nil && n%s.h.opts.KeyframeEvery != 0 {
		payload, err := gfx.EncodeDelta(img, changedTiles(img, prev.img, dirty))
		if err != nil {
			return err
		}
		if delta, err = gfx.EncodeDeltaRecord(window, iter, payload); err != nil {
			return err
		}
	}
	if n == 0 {
		s.prev[window] = s.copyFrame(img, 1, prev) // the prev slot's
		return s.publishInline(window, iter, img)
	}
	cp := s.copyFrame(img, 2, prev) // the prev slot's and the encoder's
	s.prev[window] = cp
	return s.handOff(encodeJob{window: window, iter: iter, frame: cp, delta: delta})
}

// copyFrame drops the prev slot's reference to prev (nil for a window's
// first frame) and returns a copy of img holding refs references: in a
// spare of its size when there is one, prev itself if its encoder is
// done, else in an image leased from img2d's free list.
func (s *hubSink) copyFrame(img *img2d.Image, refs int, prev *frameCopy) *frameCopy {
	s.pmu.Lock()
	if prev != nil {
		s.unrefLocked(prev)
	}
	var c *frameCopy
	for i, sp := range s.spare {
		if sp.img.Len() == img.Len() {
			c = sp
			s.spare = slices.Delete(s.spare, i, i+1)
			break
		}
	}
	s.pmu.Unlock()
	if c == nil {
		return &frameCopy{img: img.LeasedCopy(), refs: refs}
	}
	copy(c.img.Pixels(), img.Pixels())
	c.refs = refs
	return c
}

// unrefLocked drops one reference to c. Callers hold pmu.
func (s *hubSink) unrefLocked(c *frameCopy) {
	if c.refs--; c.refs == 0 {
		s.spare = append(s.spare, c)
	}
}

// failed returns the sticky error.
func (s *hubSink) failed() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.err
}

// publishInline encodes a window's first frame on the caller's
// goroutine and publishes it once every earlier frame is.
func (s *hubSink) publishInline(window string, iter int, img *img2d.Image) error {
	full, err := encodeFull(window, iter, img)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for s.next != s.handed {
		s.landed.Wait()
	}
	s.publishLocked(encoded{window: window, full: full, err: err})
	return s.err
}

// handOff queues a frame for the encoders once the in-flight bounds
// leave room for it, and starts an encoder when every running one may
// be busy.
func (s *hubSink) handOff(j encodeJob) error {
	size := 4 * j.frame.img.Len()
	s.pmu.Lock()
	for s.err == nil && s.next != s.handed &&
		(s.handed-s.next >= uint64(len(s.pending)) || s.bytes+size > maxInflightBytes) {
		s.landed.Wait()
	}
	if err := s.err; err != nil {
		s.unrefLocked(j.frame)
		s.pmu.Unlock()
		return err
	}
	j.seq = s.handed
	s.handed++
	s.bytes += size
	inflight := int(s.handed - s.next)
	s.pmu.Unlock()
	if s.todo == nil {
		// Room for every frame in flight, so the send below never blocks.
		s.todo = make(chan encodeJob, len(s.pending))
	}
	if inflight > s.encoders {
		s.encoders++
		s.wg.Add(1)
		go s.encoder()
	}
	s.todo <- j
	return nil
}

// encoder PNG-encodes handed-off frames until Close. Whichever encoder
// lands the oldest pending frame publishes it, and every later one
// already encoded.
func (s *hubSink) encoder() {
	defer s.wg.Done()
	for j := range s.todo {
		full, err := encodeFull(j.window, j.iter, j.frame.img)
		size := 4 * j.frame.img.Len()
		s.pmu.Lock()
		s.unrefLocked(j.frame)
		s.pending[j.seq%uint64(len(s.pending))] = encoded{done: true, window: j.window,
			full: full, delta: j.delta, size: size, err: err}
		for p := &s.pending[s.next%uint64(len(s.pending))]; p.done; p = &s.pending[s.next%uint64(len(s.pending))] {
			s.publishLocked(*p)
			s.bytes -= p.size
			*p = encoded{}
			s.next++
		}
		s.landed.Broadcast()
		s.pmu.Unlock()
	}
}

// publishLocked applies the keyframe rule to a frame's records and
// publishes them, unless an earlier frame failed. Callers hold pmu.
func (s *hubSink) publishLocked(e encoded) {
	if s.err != nil {
		return
	}
	if e.err != nil {
		s.err = e.err
		return
	}
	delta := e.delta
	if len(delta) >= len(e.full) {
		delta = nil // the patch is no cheaper; keyframe instead
	}
	s.err = s.h.Publish(e.window, delta == nil, e.full, delta)
}

// encodeFull PNG-encodes img into a scratch buffer and returns its
// EZFRAME record.
func encodeFull(window string, iter int, img *img2d.Image) ([]byte, error) {
	buf := pngScratch.Get().(*bytes.Buffer)
	defer pngScratch.Put(buf)
	buf.Reset()
	if err := img.EncodePNG(buf); err != nil {
		return nil, err
	}
	return gfx.EncodeFrameRecord(window, iter, buf.Bytes())
}

// Close implements gfx.FrameSink: it returns once every accepted frame
// is published (or dropped after an error), with the first error, and
// hands the sink's copies back to img2d's free lists. Close is
// idempotent.
func (s *hubSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		if s.todo != nil {
			close(s.todo)
			s.wg.Wait()
		}
		s.pmu.Lock()
		for w, c := range s.prev {
			s.unrefLocked(c)
			delete(s.prev, w)
		}
		for _, c := range s.spare {
			c.img.Release()
		}
		s.spare = nil
		s.pmu.Unlock()
	}
	return s.failed()
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
