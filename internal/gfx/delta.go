package gfx

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"easypap/internal/img2d"
)

// Dirty-tile delta frames.
//
// Lazy kernels already know exactly which tiles changed each iteration —
// tilegrid.Frontier's active set. A delta-format stream exploits that: a
// periodic EZFRAME keyframe carries the full PNG, and between keyframes
// each iteration ships only the dirty tiles as an EZDELTA record:
//
//	EZDELTA <window> <iter> <size>\n
//	<size bytes of binary payload>
//
// Payload layout (little-endian):
//
//	u16 version   (deltaVersion = 3)
//	u32 dim       image side length
//	u16 tileW     tile width in pixels
//	u16 tileH     tile height in pixels
//	u32 ntiles    number of tile patches
//	DEFLATE-compressed stream of:
//	  u8  depth   bits per pixel: 1, 2, 4 or 8 (palette indices), 32 (raw)
//	  u16 npal    palette size: 1..2^depth, 0 for depth 32 or no tiles
//	  npal × u32  palette colours
//	  ntiles × u32 tile indices (row-major: ty*tilesX + tx)
//	  ntiles × tile body, tileW*tileH pixels row-major within the tile:
//	    depth 32: u32 pixels
//	    else:     palette indices packed LSB-first, each tile starting
//	              on a byte boundary (ceil(tileW*tileH*depth/8) bytes)
//
// One palette covers every tile of a record, at the smallest depth that
// holds it. Stencil kernels paint from 2–5 colours (life's two pack at one
// bit per pixel, fire's four at two, sandpile's five at four), so a tile
// costs 1–4 bits per pixel before compression instead of 32. Raw pixels
// are the fallback for records whose dirty tiles hold more than 256
// colours. The stream is DEFLATE-compressed because the competing EZFRAME
// keyframe is a PNG — itself DEFLATE over the whole frame — and an
// uncompressed patch would lose to it on the sparse near-uniform images
// lazy kernels produce. The tile indices come first, apart from the
// bodies, so their run of small near-equal numbers compresses as one.
//
// The tile grid is uniform (sched.TileGrid requires dim divisible by the
// tile dimensions), so every patch is exactly tileW x tileH.

// deltaMagic starts every delta record header line.
const deltaMagic = "EZDELTA"

// deltaVersion is the current delta payload version.
const deltaVersion = 3

const (
	deltaHeaderLen = 14
	// maxPalette is the most colours a palette-indexed record holds.
	maxPalette = 256
	// rawDepth marks a record of raw 32-bit pixels.
	rawDepth = 32
)

// TileSet describes which tiles of a frame changed this iteration, in the
// frame's tile-grid geometry. Tiles holds row-major tile indices.
type TileSet struct {
	TilesX, TilesY int
	TileW, TileH   int
	Tiles          []int32
}

// DirtySink is the optional extension of FrameSink that accepts
// frame-plus-dirty-tiles deliveries. The run loop uses it when the kernel
// reported its active tile set for the displayed iteration; sinks that do
// not implement it keep receiving plain Frame calls.
type DirtySink interface {
	// FrameDirty delivers the rendered image plus the set of tiles that
	// changed since the previous frame of the same window. Implementations
	// must not retain img or dirty after returning; as with Frame, a sink
	// that delivers later copies what it needs during the call, and may
	// return an earlier frame's error.
	FrameDirty(window string, iter int, img *img2d.Image, dirty *TileSet) error
}

// deltaEncoder is the scratch state of one EncodeDelta call. A fresh
// BestCompression flate.Writer allocates ~0.8 MB before a byte is
// compressed, so encoders are pooled and reset instead.
type deltaEncoder struct {
	zw   *flate.Writer
	out  bytes.Buffer  // header + compressed stream
	body []byte        // the uncompressed stream
	idx  []uint8       // palette index of every dirty pixel, tile by tile
	pal  []img2d.Pixel // colours in order of first appearance
}

var deltaEncoders = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestCompression) // a valid level never errors
	return &deltaEncoder{zw: zw}
}}

// paletteIndex returns p's palette index, adding p if it is new, or false
// when the palette is full. The palettes delta frames meet hold 2–5
// colours (the stencil kernels'), where a scan beats a map.
func (e *deltaEncoder) paletteIndex(p img2d.Pixel) (uint8, bool) {
	for i, c := range e.pal {
		if c == p {
			return uint8(i), true
		}
	}
	if len(e.pal) == maxPalette {
		return 0, false
	}
	e.pal = append(e.pal, p)
	return uint8(len(e.pal) - 1), true
}

// paletteDepth is the smallest index width that holds n colours.
func paletteDepth(n int) int {
	switch {
	case n <= 2:
		return 1
	case n <= 4:
		return 2
	case n <= 16:
		return 4
	default:
		return 8
	}
}

// origin returns the top-left pixel of tile t.
func (s *TileSet) origin(t int32) (x0, y0 int) {
	return int(t) % s.TilesX * s.TileW, int(t) / s.TilesX * s.TileH
}

// EncodeDelta builds a delta payload patching the dirty tiles of img.
// The caller guarantees every pixel outside dirty's tiles is unchanged
// since the window's previous frame (the frontier no-copy invariant).
func EncodeDelta(img *img2d.Image, dirty *TileSet) ([]byte, error) {
	dim := img.Dim()
	if dirty.TileW <= 0 || dirty.TileH <= 0 ||
		dirty.TilesX*dirty.TileW != dim || dirty.TilesY*dirty.TileH != dim {
		return nil, fmt.Errorf("gfx: tile set %dx%d tiles of %dx%d does not cover dim %d",
			dirty.TilesX, dirty.TilesY, dirty.TileW, dirty.TileH, dim)
	}
	for _, t := range dirty.Tiles {
		if t < 0 || int(t) >= dirty.TilesX*dirty.TilesY {
			return nil, fmt.Errorf("gfx: tile index %d out of range [0,%d)", t, dirty.TilesX*dirty.TilesY)
		}
	}
	e := deltaEncoders.Get().(*deltaEncoder)
	defer deltaEncoders.Put(e)
	e.idx, e.pal = e.idx[:0], e.pal[:0]

	depth := 0
scan:
	for _, t := range dirty.Tiles {
		x0, y0 := dirty.origin(t)
		for y := y0; y < y0+dirty.TileH; y++ {
			for _, p := range img.Row(y)[x0 : x0+dirty.TileW] {
				i, ok := e.paletteIndex(p)
				if !ok {
					depth = rawDepth
					break scan
				}
				e.idx = append(e.idx, i)
			}
		}
	}
	npal := len(e.pal)
	if depth == rawDepth {
		npal = 0
	} else {
		depth = paletteDepth(npal)
	}

	b := append(e.body[:0], byte(depth))
	b = binary.LittleEndian.AppendUint16(b, uint16(npal))
	for _, c := range e.pal[:npal] {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	for _, t := range dirty.Tiles {
		b = binary.LittleEndian.AppendUint32(b, uint32(t))
	}
	if depth == rawDepth {
		for _, t := range dirty.Tiles {
			x0, y0 := dirty.origin(t)
			for y := y0; y < y0+dirty.TileH; y++ {
				for _, p := range img.Row(y)[x0 : x0+dirty.TileW] {
					b = binary.LittleEndian.AppendUint32(b, p)
				}
			}
		}
	} else {
		npix, perByte := dirty.TileW*dirty.TileH, 8/depth
		for k := range dirty.Tiles {
			idx := e.idx[k*npix : (k+1)*npix]
			for i := 0; i < npix; i += perByte {
				var packed byte
				for j, v := range idx[i:min(i+perByte, npix)] {
					packed |= v << (j * depth)
				}
				b = append(b, packed)
			}
		}
	}
	e.body = b

	e.out.Reset()
	var hdr [deltaHeaderLen]byte
	binary.LittleEndian.PutUint16(hdr[0:], deltaVersion)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(dim))
	binary.LittleEndian.PutUint16(hdr[6:], uint16(dirty.TileW))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(dirty.TileH))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(dirty.Tiles)))
	e.out.Write(hdr[:])
	e.zw.Reset(&e.out)
	if _, err := e.zw.Write(b); err != nil {
		return nil, err
	}
	if err := e.zw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(e.out.Bytes()), nil
}

// ApplyDelta patches img in place with the tile patches of a delta
// payload. img must be the window's previous frame at the delta's
// geometry. Every structural field is validated so a corrupt or malicious
// payload errors out instead of panicking or writing out of bounds.
func ApplyDelta(img *img2d.Image, payload []byte) error {
	if len(payload) < deltaHeaderLen {
		return fmt.Errorf("gfx: delta payload truncated (%d bytes)", len(payload))
	}
	version := binary.LittleEndian.Uint16(payload[0:])
	if version != deltaVersion {
		return fmt.Errorf("gfx: unsupported delta version %d", version)
	}
	dim := int(binary.LittleEndian.Uint32(payload[2:]))
	tileW := int(binary.LittleEndian.Uint16(payload[6:]))
	tileH := int(binary.LittleEndian.Uint16(payload[8:]))
	ntiles := int(binary.LittleEndian.Uint32(payload[10:]))
	if dim != img.Dim() {
		return fmt.Errorf("gfx: delta dim %d does not match image dim %d", dim, img.Dim())
	}
	if tileW <= 0 || tileH <= 0 || dim%tileW != 0 || dim%tileH != 0 {
		return fmt.Errorf("gfx: delta tile geometry %dx%d invalid for dim %d", tileW, tileH, dim)
	}
	tilesX, tilesY := dim/tileW, dim/tileH
	if ntiles > tilesX*tilesY {
		return fmt.Errorf("gfx: delta claims %d tiles, grid has %d", ntiles, tilesX*tilesY)
	}
	// Every read below is sized by a field already checked against the
	// image's own geometry, so a corrupt stream or a decompression bomb
	// can at most make us read what a legitimate full patch would.
	br := bytes.NewReader(payload[deltaHeaderLen:])
	// bytes.Reader is an io.ByteReader, so flate reads it unbuffered and
	// br.Len() is exact once the stream's final block ends.
	zr := flate.NewReader(br)
	defer zr.Close()
	read := func(p []byte, what string) error {
		if _, err := io.ReadFull(zr, p); err != nil {
			return fmt.Errorf("gfx: delta payload truncated in %s: %w", what, err)
		}
		return nil
	}

	var head [3]byte
	if err := read(head[:], "depth"); err != nil {
		return err
	}
	depth, npal := int(head[0]), int(binary.LittleEndian.Uint16(head[1:]))
	switch depth {
	case 1, 2, 4, 8:
		if npal > 1<<depth {
			return fmt.Errorf("gfx: delta palette of %d colours exceeds depth %d", npal, depth)
		}
		if npal == 0 && ntiles > 0 {
			return fmt.Errorf("gfx: delta has %d tiles and an empty palette", ntiles)
		}
	case rawDepth:
		if npal != 0 {
			return fmt.Errorf("gfx: raw delta carries a palette of %d colours", npal)
		}
	default:
		return fmt.Errorf("gfx: unknown delta depth %d", depth)
	}
	palBytes := make([]byte, 4*npal)
	if err := read(palBytes, "palette"); err != nil {
		return err
	}
	tiles := make([]byte, 4*ntiles)
	if err := read(tiles, "tile indices"); err != nil {
		return err
	}
	for k := 0; k < ntiles; k++ {
		if t := binary.LittleEndian.Uint32(tiles[4*k:]); t >= uint32(tilesX*tilesY) {
			return fmt.Errorf("gfx: delta tile index %d out of range [0,%d)", t, tilesX*tilesY)
		}
	}
	pal := make([]img2d.Pixel, npal)
	for i := range pal {
		pal[i] = binary.LittleEndian.Uint32(palBytes[4*i:])
	}

	grid := TileSet{TilesX: tilesX, TilesY: tilesY, TileW: tileW, TileH: tileH}
	body := make([]byte, (tileW*tileH*depth+7)/8)
	mask := byte(1<<depth - 1) // all ones for depth 8; unused for depth 32
	for k := 0; k < ntiles; k++ {
		if _, err := io.ReadFull(zr, body); err != nil {
			return fmt.Errorf("gfx: delta payload truncated in tile %d: %w", k, err)
		}
		x0, y0 := grid.origin(int32(binary.LittleEndian.Uint32(tiles[4*k:])))
		i := 0
		for y := y0; y < y0+tileH; y++ {
			row := img.Row(y)[x0 : x0+tileW]
			for x := range row {
				if depth == rawDepth {
					row[x] = binary.LittleEndian.Uint32(body[4*i:])
				} else {
					bit := i * depth
					v := int(body[bit>>3] >> (bit & 7) & mask)
					if v >= npal {
						return fmt.Errorf("gfx: delta tile %d palette index %d out of range [0,%d)", k, v, npal)
					}
					row[x] = pal[v]
				}
				i++
			}
		}
	}
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("gfx: trailing bytes after delta tiles")
	}
	if br.Len() != 0 {
		return fmt.Errorf("gfx: %d trailing bytes after delta stream", br.Len())
	}
	return nil
}

// Reassembler rebuilds full images from a delta-format record stream:
// feed it every record in order and it returns the window's current full
// image after each one. A delta arriving before the window's first
// keyframe is an error (a hub subscriber is always synced on a keyframe
// first, so this only happens on corrupt or missequenced streams).
type Reassembler struct {
	imgs map[string]*img2d.Image
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{imgs: make(map[string]*img2d.Image)}
}

// Apply incorporates one record and returns the window's resulting full
// image. The returned image aliases the reassembler's state: it is valid
// until the window's next Apply.
func (ra *Reassembler) Apply(rec *Record) (*img2d.Image, error) {
	switch rec.Kind {
	case RecordFull:
		img, err := img2d.DecodePNG(bytes.NewReader(rec.Payload))
		if err != nil {
			return nil, fmt.Errorf("gfx: decoding keyframe %s/%d: %w", rec.Window, rec.Iter, err)
		}
		ra.imgs[rec.Window] = img
		return img, nil
	case RecordDelta:
		img := ra.imgs[rec.Window]
		if img == nil {
			return nil, fmt.Errorf("gfx: delta record %s/%d before any keyframe", rec.Window, rec.Iter)
		}
		if err := ApplyDelta(img, rec.Payload); err != nil {
			return nil, err
		}
		return img, nil
	default:
		return nil, fmt.Errorf("gfx: unknown record kind %d", rec.Kind)
	}
}
