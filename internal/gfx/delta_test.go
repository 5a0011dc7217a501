package gfx

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"sync"
	"testing"

	"easypap/internal/img2d"
)

// patchImage builds a deterministic pseudo-random image. colours > 0
// draws every pixel from a palette of that many opaque colours (so the
// image survives a PNG round trip); colours == 0 draws raw 32-bit pixels.
func patchImage(dim int, seed int64, colours int) *img2d.Image {
	rng := rand.New(rand.NewSource(seed))
	pal := make([]img2d.Pixel, colours)
	for i := range pal {
		pal[i] = rng.Uint32() | 0xff
	}
	im := img2d.New(dim)
	for y := 0; y < dim; y++ {
		row := im.Row(y)
		for x := range row {
			if colours > 0 {
				row[x] = pal[rng.Intn(colours)]
			} else {
				row[x] = rng.Uint32()
			}
		}
	}
	return im
}

func fullTileSet(dim, tileW, tileH int) *TileSet {
	set := &TileSet{TilesX: dim / tileW, TilesY: dim / tileH, TileW: tileW, TileH: tileH}
	for t := 0; t < set.TilesX*set.TilesY; t++ {
		set.Tiles = append(set.Tiles, int32(t))
	}
	return set
}

// payloadDepth decompresses a delta payload's stream and returns its
// depth byte.
func payloadDepth(t *testing.T, payload []byte) int {
	t.Helper()
	zr := flate.NewReader(bytes.NewReader(payload[deltaHeaderLen:]))
	defer zr.Close()
	var depth [1]byte
	if _, err := io.ReadFull(zr, depth[:]); err != nil {
		t.Fatal(err)
	}
	return int(depth[0])
}

// Round trip: patching a stale base with the dirty tiles of a new image
// reproduces the new image exactly, at every depth.
func TestDeltaRoundTrip(t *testing.T) {
	for _, tc := range []struct{ colours, depth int }{
		{2, 1}, {4, 2}, {16, 4}, {200, 8}, {0, rawDepth},
	} {
		for _, seed := range []int64{1, 7, 42} {
			next := patchImage(32, seed, tc.colours)
			base := patchImage(32, seed+100, tc.colours)
			// Dirty = every tile, so the whole base must be overwritten.
			set := fullTileSet(32, 8, 8)
			payload, err := EncodeDelta(next, set)
			if err != nil {
				t.Fatal(err)
			}
			if got := payloadDepth(t, payload); got != tc.depth {
				t.Errorf("%d colours: encoded at depth %d, want %d", tc.colours, got, tc.depth)
			}
			if err := ApplyDelta(base, payload); err != nil {
				t.Fatal(err)
			}
			if !base.Equal(next) {
				t.Errorf("seed %d, %d colours: patched image differs (%d pixels)",
					seed, tc.colours, base.DiffCount(next))
			}
		}
	}
}

// Partial dirty sets only touch their tiles; an empty one changes
// nothing.
func TestDeltaPartialPatch(t *testing.T) {
	for _, tiles := range [][]int32{{0, 5, 15}, {}} {
		next := patchImage(32, 3, 0)
		base := patchImage(32, 4, 0)
		want := base.Clone()
		set := &TileSet{TilesX: 4, TilesY: 4, TileW: 8, TileH: 8, Tiles: tiles}
		payload, err := EncodeDelta(next, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyDelta(base, payload); err != nil {
			t.Fatal(err)
		}
		for _, tile := range set.Tiles {
			tx, ty := int(tile)%4, int(tile)/4
			for y := ty * 8; y < ty*8+8; y++ {
				for x := tx * 8; x < tx*8+8; x++ {
					want.Set(y, x, next.Get(y, x))
				}
			}
		}
		if !base.Equal(want) {
			t.Errorf("tiles %v: patch touched pixels outside its tiles (%d diffs)", tiles, base.DiffCount(want))
		}
	}
}

// Pooled encoders serve concurrent callers: every payload must still
// restore its own image.
func TestDeltaConcurrentEncoders(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, colours := range []int{2, 5, 0, 300, 16} {
				next := patchImage(32, int64(10*g+i), colours)
				base := img2d.New(32)
				payload, err := EncodeDelta(next, fullTileSet(32, 8, 4))
				if err == nil {
					err = ApplyDelta(base, payload)
				}
				if err != nil || !base.Equal(next) {
					t.Errorf("goroutine %d, %d colours: round trip failed (err %v)", g, colours, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// Two-colour tiles must compress: depth 1 packs 1 bit per pixel instead
// of 32.
func TestDeltaBitplaneCompression(t *testing.T) {
	dim, tile := 64, 16
	binaryImg := patchImage(dim, 9, 2)
	noisyImg := patchImage(dim, 9, 0)
	set := fullTileSet(dim, tile, tile)
	packed, err := EncodeDelta(binaryImg, set)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeDelta(noisyImg, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed)*8 > len(raw) {
		t.Errorf("1-bit payload %dB not ~32x under raw %dB", len(packed), len(raw))
	}
}

// deltaCase is one corrupt delta payload.
type deltaCase struct {
	name    string
	payload []byte
}

// malformedDeltaPayloads returns a 32x32 image (8x8 tiles) and corrupt
// delta payloads for it, each of which ApplyDelta must refuse.
func malformedDeltaPayloads(tb testing.TB) (*img2d.Image, []deltaCase) {
	img := patchImage(32, 5, 2)
	good, err := EncodeDelta(img, fullTileSet(32, 8, 8))
	if err != nil {
		tb.Fatal(err)
	}

	mutate := func(mut func(p []byte) []byte) []byte {
		p := append([]byte(nil), good...)
		return mut(p)
	}
	// craft builds a payload with the good header (ntiles patched) over a
	// hand-built, properly DEFLATE-compressed stream — for corruption
	// below the compression layer.
	craft := func(ntiles uint32, stream []byte) []byte {
		p := append([]byte(nil), good[:deltaHeaderLen]...)
		binary.LittleEndian.PutUint32(p[10:], ntiles)
		var z bytes.Buffer
		zw, err := flate.NewWriter(&z, flate.BestSpeed)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := zw.Write(stream); err != nil {
			tb.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			tb.Fatal(err)
		}
		return append(p, z.Bytes()...)
	}
	// stream lays out a v3 stream: depth, palette, tile indices, bodies.
	stream := func(depth int, pal []img2d.Pixel, tiles []uint32, bodies []byte) []byte {
		b := []byte{byte(depth)}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(pal)))
		for _, c := range pal {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		for _, t := range tiles {
			b = binary.LittleEndian.AppendUint32(b, t)
		}
		return append(b, bodies...)
	}
	two := []img2d.Pixel{0xff0000ff, 0x000000ff}
	body1 := make([]byte, 8*8/8) // one 8x8 tile at depth 1
	body2 := make([]byte, 8*8/4) // one 8x8 tile at depth 2
	badIndex := append([]byte(nil), body2...)
	badIndex[0] = 3 // first pixel: index 3 of a 3-colour palette

	return img, []deltaCase{
		{"empty", nil},
		{"truncated header", good[:10]},
		{"bad version", mutate(func(p []byte) []byte { p[0] = 99; return p })},
		{"version 2", mutate(func(p []byte) []byte { p[0] = 2; return p })},
		{"wrong dim", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[2:], 64); return p })},
		{"zero tileW", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[6:], 0); return p })},
		{"non-dividing tileH", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[8:], 7); return p })},
		{"tile count over grid", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[10:], 1000); return p })},
		{"tile index out of range", craft(1, stream(1, two, []uint32{99}, body1))},
		{"unknown depth", craft(1, stream(3, two, []uint32{0}, body1))},
		{"palette larger than depth", craft(1, stream(1, append(two, 0x00ff00ff), []uint32{0}, body1))},
		{"tiles with empty palette", craft(1, stream(1, nil, []uint32{0}, body1))},
		{"raw depth with palette", craft(1, stream(rawDepth, two, []uint32{0}, make([]byte, 4*8*8)))},
		{"palette index out of range", craft(1, stream(2, append(two, 0x00ff00ff), []uint32{0}, badIndex))},
		{"tile stream under-claims", craft(2, stream(1, two, []uint32{0}, body1))},
		{"tile stream over-claims", craft(1, stream(1, two, []uint32{0, 1}, append(body1, body1...)))},
		{"truncated tile body", good[:len(good)-3]},
		{"trailing garbage", append(append([]byte(nil), good...), 0xde, 0xad)},
	}
}

// Corrupt delta payloads must error out, never panic or write out of
// bounds.
func TestDeltaMalformedPayloadBattery(t *testing.T) {
	img, cases := malformedDeltaPayloads(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := img.Clone()
			if err := ApplyDelta(target, tc.payload); err == nil {
				t.Errorf("corrupt payload accepted")
			}
		})
	}
}

// The reassembler applies keyframes and deltas in order and refuses a
// delta with no base.
func TestReassembler(t *testing.T) {
	frame1 := patchImage(32, 11, 2)
	frame2 := frame1.Clone()
	// Mutate one tile to two known colors.
	frame2.FillRect(8, 8, 8, 8, 0x00ff00ff)
	set := &TileSet{TilesX: 4, TilesY: 4, TileW: 8, TileH: 8, Tiles: []int32{5}}
	payload, err := EncodeDelta(frame2, set)
	if err != nil {
		t.Fatal(err)
	}

	var png bytes.Buffer
	if err := frame1.EncodePNG(&png); err != nil {
		t.Fatal(err)
	}

	ra := NewReassembler()
	if _, err := ra.Apply(&Record{Kind: RecordDelta, Window: "main", Iter: 2, Payload: payload}); err == nil {
		t.Error("delta before keyframe accepted")
	}
	img, err := ra.Apply(&Record{Kind: RecordFull, Window: "main", Iter: 1, Payload: png.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(frame1) {
		t.Error("keyframe did not decode to the original image")
	}
	img, err = ra.Apply(&Record{Kind: RecordDelta, Window: "main", Iter: 2, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(frame2) {
		t.Errorf("keyframe+delta differs from the true frame (%d diffs)", img.DiffCount(frame2))
	}
}
