package serve

// Frame-path encoding cost: what one published frame costs with the
// full-PNG path versus the dirty-tile delta path, and what the hub's
// publish fan-out costs per subscriber. The sink encodes on helper
// goroutines, so each benchmark closes it inside the timed region: the
// numbers time records published, not frames handed off. EXPERIMENTS.md
// records them together with the byte-shrink measurement from
// TestDeltaStreamShrinksBytes.

import (
	"context"
	"io"
	"testing"

	"easypap/internal/gfx"
	"easypap/internal/img2d"
)

// benchBoard builds a 256x256 two-color board with a sparse diagonal of
// live cells — the shape of a steady-state lazy-life frame.
func benchBoard() (*img2d.Image, *gfx.TileSet) {
	const dim, tile = 256, 16
	img := img2d.New(dim)
	set := &gfx.TileSet{TilesX: dim / tile, TilesY: dim / tile, TileW: tile, TileH: tile}
	for i := 0; i < dim; i += 4 {
		img.Set(i, i, img2d.RGB(255, 255, 255))
		if i+1 < dim {
			img.Set(i+1, i, img2d.RGB(255, 255, 255))
		}
	}
	// The dispatch frontier: the diagonal tiles plus their neighbours.
	seen := map[int32]bool{}
	for ty := 0; ty < set.TilesY; ty++ {
		for _, dx := range []int{-1, 0, 1} {
			tx := ty + dx
			if tx < 0 || tx >= set.TilesX {
				continue
			}
			t := int32(ty*set.TilesX + tx)
			if !seen[t] {
				seen[t] = true
				set.Tiles = append(set.Tiles, t)
			}
		}
	}
	return img, set
}

// BenchmarkFramePublishFull is the pre-delta baseline: every frame PNG
// encoded and published as a keyframe.
func BenchmarkFramePublishFull(b *testing.B) {
	img, _ := benchBoard()
	h := NewFrameHub(HubOptions{MaxRecords: 64})
	s := newHubSink(h)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Frame("main", i+1, img); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFramePublishDelta is the dirty-tile path: PNG still encoded
// (it backs keyframes and full-format readers) plus the changed-tile
// diff and EZDELTA encoding.
func BenchmarkFramePublishDelta(b *testing.B) {
	img, set := benchBoard()
	h := NewFrameHub(HubOptions{MaxRecords: 64, KeyframeEvery: 1 << 30})
	s := newHubSink(h)
	// Seed the previous frame so every benched iteration takes the delta
	// path; flip one pixel per round so the diff is never empty.
	if err := s.FrameDirty("main", 1, img, set); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on := i%2 == 0
		px := img2d.RGB(0, 0, 0)
		if on {
			px = img2d.RGB(255, 255, 255)
		}
		img.Set(8, 8, px)
		if err := s.FrameDirty("main", i+2, img, set); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHubFanout measures delivering one published record to N
// subscribers — the per-viewer cost of the broadcast hub.
func BenchmarkHubFanout(b *testing.B) {
	img, _ := benchBoard()
	h := NewFrameHub(HubOptions{MaxRecords: 8})
	s := newHubSink(h)
	const subs = 16
	readers := make([]*HubReader, subs)
	for i := range readers {
		readers[i] = h.Subscribe(context.Background(), gfx.FormatFull)
		defer readers[i].Close()
	}
	buf := make([]byte, 64<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Frame("main", i+1, img); err != nil {
			b.Fatal(err)
		}
		for _, rd := range readers {
			// Drain exactly the published record from each cursor.
			for {
				n, err := rd.Read(buf)
				if err != nil && err != io.EOF {
					b.Fatal(err)
				}
				if n < len(buf) {
					break
				}
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
