package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"easypap/internal/gfx"
	"easypap/internal/img2d"
)

// testRecord builds one EZFRAME wire record with a deterministic tiny
// payload tagged by iter.
func testRecord(t *testing.T, window string, iter int) []byte {
	t.Helper()
	rec, err := gfx.EncodeFrameRecord(window, iter, []byte{byte(iter), byte(iter >> 8), 0xaa})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func publishN(t *testing.T, h *FrameHub, n, keyEvery int) {
	t.Helper()
	for i := 0; i < n; i++ {
		full := testRecord(t, "main", i)
		var delta []byte
		key := keyEvery <= 0 || i%keyEvery == 0
		if !key {
			d, err := gfx.EncodeDeltaRecord("main", i, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			delta = d
		}
		if err := h.Publish("main", key, full, delta); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
}

// drainRecords reads records off a HubReader until EOF.
func drainRecords(t *testing.T, rd io.Reader) []*gfx.Record {
	t.Helper()
	br := bufio.NewReader(rd)
	var out []*gfx.Record
	for {
		rec, err := gfx.ReadRecord(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("after %d records: %v", len(out), err)
		}
		out = append(out, rec)
	}
}

// Publishing after Close must error and count, never silently append —
// the regression this pins: the old frameHub accepted post-close writes
// that no subscriber could ever observe.
func TestHubPostClosePublish(t *testing.T) {
	var stats HubStats
	h := NewFrameHub(HubOptions{Stats: &stats})
	publishN(t, h, 2, 0)
	h.Close()
	h.Close() // idempotent

	err := h.Publish("main", true, testRecord(t, "main", 99), nil)
	if !errors.Is(err, ErrHubClosed) {
		t.Fatalf("post-close publish: got %v, want ErrHubClosed", err)
	}
	if got := stats.PostCloseDrops.Load(); got != 1 {
		t.Errorf("PostCloseDrops = %d, want 1", got)
	}

	rd := h.Subscribe(context.Background(), gfx.FormatFull)
	defer rd.Close()
	recs := drainRecords(t, rd)
	if len(recs) != 2 {
		t.Fatalf("subscriber saw %d records, want 2 (dropped record leaked into the ring)", len(recs))
	}
}

// A subscriber blocked waiting for frames must unblock when its context
// is canceled — the goroutine-leak regression: a viewer that closed its
// connection used to park in cond.Wait until the job finished.
func TestHubSubscriberCancelUnblocks(t *testing.T) {
	h := NewFrameHub(HubOptions{})
	ctx, cancel := context.WithCancel(context.Background())

	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rd := h.Subscribe(ctx, gfx.FormatFull)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			_, err := io.ReadAll(rd)
			errs <- err
		}()
	}

	// All readers are (or soon will be) parked on the empty hub.
	time.Sleep(20 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("canceled subscribers still blocked after 2s — reader goroutines leaked")
	}
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("reader %d: got %v, want context.Canceled", i, err)
		}
	}
	// The hub is still usable for other subscribers afterwards.
	publishN(t, h, 1, 0)
	h.Close()
	rd := h.Subscribe(context.Background(), gfx.FormatFull)
	defer rd.Close()
	if got := len(drainRecords(t, rd)); got != 1 {
		t.Errorf("post-cancel subscriber saw %d records, want 1", got)
	}
}

// waitParked blocks until n readers are parked on h.
func waitParked(t *testing.T, h *FrameHub, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		parked := len(h.parked)
		h.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d readers parked after 5s, want %d", parked, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestHubParkedReadersWake: readers parked before a publish all wake and
// read it, publish after publish, and readers parked before Close all
// see EOF. A reader canceled while parked leaves the others waking.
func TestHubParkedReadersWake(t *testing.T) {
	h := NewFrameHub(HubOptions{})
	const readers, publishes, cancelAt = 6, 40, 10
	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	type read struct {
		rec []byte
		err error
	}
	got := make([]chan read, readers)
	for i := range got {
		ctx := context.Background()
		if i == 0 {
			ctx = ctx0
		}
		rd := h.Subscribe(ctx, gfx.FormatFull)
		got[i] = make(chan read)
		go func(out chan<- read) {
			defer rd.Close()
			buf := make([]byte, 256)
			for {
				n, err := rd.Read(buf)
				out <- read{append([]byte(nil), buf[:n]...), err}
				if err != nil {
					return
				}
			}
		}(got[i])
	}
	live := readers
	for i := 0; i < publishes; i++ {
		if i == cancelAt {
			waitParked(t, h, live)
			cancel0()
			if r := <-got[0]; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("canceled reader: got %v, want context.Canceled", r.err)
			}
			live--
		}
		// Every live reader is parked before the publish, and the one
		// canceled above may still be listed.
		for {
			h.mu.Lock()
			parked := len(h.parked)
			h.mu.Unlock()
			if parked >= live {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		want := testRecord(t, "main", i)
		if err := h.Publish("main", true, want, nil); err != nil {
			t.Fatal(err)
		}
		for r := readers - live; r < readers; r++ {
			select {
			case rd := <-got[r]:
				if rd.err != nil || !bytes.Equal(rd.rec, want) {
					t.Fatalf("publish %d: reader %d read %d bytes, err %v", i, r, len(rd.rec), rd.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("publish %d: reader %d still parked after 5s", i, r)
			}
		}
	}
	waitParked(t, h, live)
	h.Close()
	for r := readers - live; r < readers; r++ {
		select {
		case rd := <-got[r]:
			if rd.err != io.EOF {
				t.Errorf("after Close: reader %d got %v, want EOF", r, rd.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("after Close: reader %d still parked after 5s", r)
		}
	}
}

// A stalled subscriber must never stall the writer: with a tiny ring the
// writer keeps evicting and publishing at full speed, and when the
// subscriber finally reads it lands on the latest keyframe (counted as a
// drop) instead of chasing evicted history.
func TestHubSlowSubscriberDropsToKeyframe(t *testing.T) {
	var stats HubStats
	// Ring ≥ keyframe interval (as with the defaults), so a keyframe is
	// always retained for resync.
	h := NewFrameHub(HubOptions{MaxRecords: 16, KeyframeEvery: 8, Stats: &stats})

	// Subscribe first, read nothing: the cursor points at seq 0.
	rd := h.Subscribe(context.Background(), gfx.FormatDelta)
	defer rd.Close()

	// The writer publishes far more than the ring holds. Publish never
	// blocks on the stalled subscriber; a wall-clock bound catches any
	// future backpressure coupling.
	done := make(chan struct{})
	go func() {
		publishN(t, h, 200, 8)
		h.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked by a stalled subscriber")
	}

	recs := drainRecords(t, rd)
	if len(recs) == 0 {
		t.Fatal("stalled subscriber got nothing after resync")
	}
	if recs[0].Kind != gfx.RecordFull {
		t.Errorf("first record after resync is %v, want a keyframe (RecordFull)", recs[0].Kind)
	}
	if recs[0].Iter != 192 {
		t.Errorf("resynced to keyframe iter %d, want 192 (the newest keyframe)", recs[0].Iter)
	}
	// It must have resynced near the head, not replayed the stream.
	if len(recs) > 16 {
		t.Errorf("resynced subscriber got %d records, want at most the ring", len(recs))
	}
	if got := stats.DroppedToKey.Load(); got == 0 {
		t.Error("DroppedToKey = 0, want > 0 for a lapped subscriber")
	}
}

// Ring memory is bounded by MaxBytes/MaxRecords regardless of stream
// length — the tentpole's memory guarantee.
func TestHubMemoryBounded(t *testing.T) {
	const maxBytes = 64 << 10
	h := NewFrameHub(HubOptions{MaxRecords: 1 << 20, MaxBytes: maxBytes})
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	for i := 0; i < 500; i++ {
		full, err := gfx.EncodeFrameRecord("main", i, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Publish("main", true, full, nil); err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		b, n := h.bytes, len(h.ring)
		h.mu.Unlock()
		if b > maxBytes && n > 1 {
			t.Fatalf("after %d publishes ring holds %d bytes > MaxBytes %d", i+1, b, maxBytes)
		}
	}
	h.mu.Lock()
	n := len(h.ring)
	h.mu.Unlock()
	if n >= 500 {
		t.Errorf("ring retained all %d records — eviction never ran", n)
	}
}

// A late full-format subscriber replays the retained ring from the
// oldest record; concurrent subscribers see identical bytes.
func TestHubLateSubscribersSeeIdenticalStreams(t *testing.T) {
	h := NewFrameHub(HubOptions{})
	publishN(t, h, 10, 3)
	h.Close()

	var streams [][]byte
	for i := 0; i < 3; i++ {
		rd := h.Subscribe(context.Background(), gfx.FormatFull)
		b, err := io.ReadAll(rd)
		rd.Close()
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, b)
	}
	for i := 1; i < len(streams); i++ {
		if !bytes.Equal(streams[0], streams[i]) {
			t.Errorf("subscriber %d bytes differ from subscriber 0", i)
		}
	}
	recs := drainRecords(t, bytes.NewReader(streams[0]))
	if len(recs) != 10 {
		t.Errorf("full-format replay has %d records, want 10", len(recs))
	}
	for _, rec := range recs {
		if rec.Kind != gfx.RecordFull {
			t.Errorf("full-format stream contains a %v record", rec.Kind)
		}
	}
}

// Delta-format subscribers skip a window's delta records until they have
// its keyframe; a delta stream therefore always starts with EZFRAME.
func TestHubDeltaStreamStartsOnKeyframe(t *testing.T) {
	h := NewFrameHub(HubOptions{MaxRecords: 3, KeyframeEvery: 4})
	// Publish so the ring's oldest survivor is a non-key record.
	publishN(t, h, 6, 4) // keys at 0 and 4; ring keeps 3,4,5
	h.Close()

	rd := h.Subscribe(context.Background(), gfx.FormatDelta)
	defer rd.Close()
	recs := drainRecords(t, rd)
	if len(recs) == 0 {
		t.Fatal("no records delivered")
	}
	if recs[0].Kind != gfx.RecordFull {
		t.Fatalf("delta stream started with %v, want keyframe", recs[0].Kind)
	}
	if recs[0].Iter != 4 {
		t.Errorf("first keyframe is iter %d, want 4 (the retained keyframe)", recs[0].Iter)
	}
	for _, rec := range recs[1:] {
		if rec.Kind != gfx.RecordDelta {
			t.Errorf("post-keyframe record for a delta reader is %v", rec.Kind)
		}
	}
}

// hubSink encodes deltas only off the keyframe cadence and falls back to
// a keyframe when the patch would not be smaller.
func TestHubSinkKeyframeCadence(t *testing.T) {
	var stats HubStats
	h := NewFrameHub(HubOptions{KeyframeEvery: 4, Stats: &stats})
	sink := newHubSink(h)

	const dim, tile = 32, 8
	img := img2d.New(dim)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			if (x+y)%2 == 0 {
				img.Set(y, x, img2d.RGB(255, 255, 255))
			}
		}
	}
	grid := &gfx.TileSet{TilesX: dim / tile, TilesY: dim / tile, TileW: tile, TileH: tile}
	for i := 0; i < 8; i++ {
		set := &gfx.TileSet{TilesX: grid.TilesX, TilesY: grid.TilesY,
			TileW: tile, TileH: tile, Tiles: []int32{int32(i % 16)}}
		img.FillRect((i%4)*tile, (i/4)*tile, tile, tile, img2d.RGB(0, uint8(40*i), 0))
		if err := sink.FrameDirty("main", i+1, img, set); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	h.Close()

	rd := h.Subscribe(context.Background(), gfx.FormatDelta)
	defer rd.Close()
	recs := drainRecords(t, rd)
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	// Frames 0 and 4 of the window are on the cadence; the rest carry
	// one-tile patches that are clearly smaller than a 32x32 PNG.
	for i, rec := range recs {
		wantKey := i%4 == 0
		if (rec.Kind == gfx.RecordFull) != wantKey {
			t.Errorf("record %d kind %v, want key=%v", i, rec.Kind, wantKey)
		}
	}
	if stats.DeltaBytes.Load() >= stats.FullBytes.Load() {
		t.Errorf("delta bytes %d not smaller than full bytes %d for sparse dirt",
			stats.DeltaBytes.Load(), stats.FullBytes.Load())
	}
}

// Subscribers gauge goes up on Subscribe and back down on Close, once,
// even if Close is called repeatedly.
func TestHubSubscriberGauge(t *testing.T) {
	var stats HubStats
	h := NewFrameHub(HubOptions{Stats: &stats})
	rd1 := h.Subscribe(context.Background(), gfx.FormatFull)
	rd2 := h.Subscribe(context.Background(), gfx.FormatDelta)
	if got := stats.Subscribers.Load(); got != 2 {
		t.Fatalf("gauge = %d after two subscribes, want 2", got)
	}
	rd1.Close()
	rd1.Close()
	rd2.Close()
	if got := stats.Subscribers.Load(); got != 0 {
		t.Errorf("gauge = %d after closes, want 0", got)
	}
}
