package gfx_test

// Golden-file regression for the frame stream wire format. The cluster
// layer proxies /v1/jobs/{id}/frames byte-for-byte between nodes, so
// any drift in the encoder — header layout, PNG encoding, record
// framing — would silently corrupt every proxied stream. This test
// encodes a fixed, fully deterministic frame sequence and compares it
// against a checked-in golden file.
//
// The golden stream has two sections: the original EZFRAME-only
// sequence (the default full format, unchanged since PR 2), followed by
// a delta-format sub-sequence — one keyframe plus EZDELTA dirty-tile
// records at two palette depths (1 and 4 bits per pixel). Extending
// the file instead of adding a second golden keeps the "full prefix
// unchanged" property visible in the diff whenever it is regenerated.
//
// Refresh after an *intentional* format change with:
//
//	go test ./internal/gfx/ -run TestStreamGolden -update
//
// (Go's image/png output is deterministic for a given Go release; a
// toolchain major bump may legitimately re-golden this file — the
// decode-level assertions below tell that case apart from real
// corruption.)

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"easypap/internal/gfx"
	"easypap/internal/img2d"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const goldenPath = "testdata/stream.golden"

// goldenSequence is the fixed frame sequence: three windows across two
// iterations, tiny deterministic images with distinct patterns per
// window so a swapped or truncated record cannot compare equal.
func goldenSequence() []struct {
	window string
	iter   int
	img    *img2d.Image
} {
	mk := func(dim int, f func(y, x int) img2d.Pixel) *img2d.Image {
		im := img2d.New(dim)
		for y := 0; y < dim; y++ {
			for x := 0; x < dim; x++ {
				im.Set(y, x, f(y, x))
			}
		}
		return im
	}
	gradient := func(iter int) *img2d.Image {
		return mk(16, func(y, x int) img2d.Pixel {
			return img2d.RGB(uint8(x*16), uint8(y*16), uint8(iter*40))
		})
	}
	checker := func(iter int) *img2d.Image {
		return mk(8, func(y, x int) img2d.Pixel {
			if (x+y+iter)%2 == 0 {
				return img2d.RGB(255, 255, 255)
			}
			return img2d.RGB(0, 0, 0)
		})
	}
	diag := func(iter int) *img2d.Image {
		return mk(12, func(y, x int) img2d.Pixel {
			return img2d.RGB(uint8((x*y+iter)%256), uint8(x*21), uint8(y*21))
		})
	}
	return []struct {
		window string
		iter   int
		img    *img2d.Image
	}{
		{"main", 1, gradient(1)},
		{"tiling", 1, checker(1)},
		{"activity", 1, diag(1)},
		{"main", 2, gradient(2)},
		{"tiling", 2, checker(2)},
		{"activity", 2, diag(2)},
	}
}

func encodeGoldenSequence(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := gfx.NewStreamSink(&buf)
	for _, f := range goldenSequence() {
		if err := sink.Frame(f.window, f.iter, f.img); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// goldenDeltaSequence builds the delta-format section: a 16x16 two-color
// keyframe (iter 3) and two EZDELTA records — iter 4 patches one
// two-color tile (depth 1), iter 5 patches one 16-colour gradient tile
// (depth 4). Returns the wire bytes plus the three expected full
// images in stream order.
func goldenDeltaSequence(t *testing.T) ([]byte, []*img2d.Image) {
	t.Helper()
	const dim, tile = 16, 4
	base := img2d.New(dim)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			if (x+y)%2 == 0 {
				base.Set(y, x, img2d.RGB(255, 0, 0))
			} else {
				base.Set(y, x, img2d.RGB(0, 0, 0))
			}
		}
	}
	// Iter 4: tile 5 (tx=1, ty=1) flips to solid green — two colors in
	// the tile, so the encoder packs it at one bit per pixel.
	f4 := base.Clone()
	f4.FillRect(1*tile, 1*tile, tile, tile, img2d.RGB(0, 255, 0))
	// Iter 5: tile 10 (tx=2, ty=2) becomes a gradient — 16 colours, four
	// bits per pixel.
	f5 := f4.Clone()
	for y := 2 * tile; y < 3*tile; y++ {
		for x := 2 * tile; x < 3*tile; x++ {
			f5.Set(y, x, img2d.RGB(uint8(x*16), uint8(y*16), 128))
		}
	}

	var buf bytes.Buffer
	var png bytes.Buffer
	if err := base.EncodePNG(&png); err != nil {
		t.Fatal(err)
	}
	key, err := gfx.EncodeFrameRecord("main", 3, png.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(key)
	grid := &gfx.TileSet{TilesX: dim / tile, TilesY: dim / tile, TileW: tile, TileH: tile}
	for _, d := range []struct {
		iter int
		img  *img2d.Image
		dirt []int32
	}{
		{4, f4, []int32{5}},
		{5, f5, []int32{10}},
	} {
		set := &gfx.TileSet{TilesX: grid.TilesX, TilesY: grid.TilesY, TileW: tile, TileH: tile, Tiles: d.dirt}
		payload, err := gfx.EncodeDelta(d.img, set)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := gfx.EncodeDeltaRecord("main", d.iter, payload)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(rec)
	}
	return buf.Bytes(), []*img2d.Image{base, f4, f5}
}

func TestStreamGolden(t *testing.T) {
	fullSection := encodeGoldenSequence(t)
	deltaSection, deltaImgs := goldenDeltaSequence(t)
	got := append(append([]byte(nil), fullSection...), deltaSection...)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}

	// Structural check first: if the bytes differ, report whether the
	// stream still *decodes* to the same frames — that distinguishes a
	// benign PNG-encoder change (re-golden) from format corruption
	// (fix the encoder).
	if !bytes.Equal(got, want) {
		structural := "and no longer decodes to the same frames — the stream format broke"
		if framesEquivalent(t, got, want) {
			structural = "but still decodes to identical frames — likely a PNG encoder change; re-golden with -update if intentional"
		}
		t.Fatalf("encoded stream differs from %s (%d vs %d bytes), %s",
			goldenPath, len(got), len(want), structural)
	}

	// The full-format section is EZFRAME records only — clients never see
	// EZDELTA on a default stream, and the golden's EZFRAME prefix is
	// byte-compatible with pre-delta golden files.
	r := bufio.NewReader(bytes.NewReader(want))
	seq := goldenSequence()
	for i, exp := range seq {
		f, err := gfx.ReadRecord(r)
		if err != nil {
			t.Fatalf("decoding golden record %d: %v", i, err)
		}
		if f.Kind != gfx.RecordFull || f.Window != exp.window || f.Iter != exp.iter {
			t.Fatalf("record %d = kind %d %s/%d, want a full %s/%d", i, f.Kind, f.Window, f.Iter, exp.window, exp.iter)
		}
		im, err := img2d.DecodePNG(bytes.NewReader(f.Payload))
		if err != nil {
			t.Fatalf("record %d PNG: %v", i, err)
		}
		if !im.Equal(exp.img) {
			t.Errorf("record %d: decoded pixels differ from source image", i)
		}
	}

	// The delta section reads with ReadRecord and reassembles to the
	// expected full images: keyframe, 1-bit patch, 4-bit patch.
	ra := gfx.NewReassembler()
	wantKinds := []gfx.RecordKind{gfx.RecordFull, gfx.RecordDelta, gfx.RecordDelta}
	for i, kind := range wantKinds {
		rec, err := gfx.ReadRecord(r)
		if err != nil {
			t.Fatalf("decoding delta-section record %d: %v", i, err)
		}
		if rec.Kind != kind || rec.Window != "main" || rec.Iter != 3+i {
			t.Fatalf("delta-section record %d = kind %d %s/%d, want kind %d main/%d",
				i, rec.Kind, rec.Window, rec.Iter, kind, 3+i)
		}
		im, err := ra.Apply(rec)
		if err != nil {
			t.Fatalf("reassembling delta-section record %d: %v", i, err)
		}
		if !im.Equal(deltaImgs[i]) {
			t.Errorf("delta-section record %d: reassembled pixels differ from source image", i)
		}
	}
	if _, err := gfx.ReadRecord(r); err != io.EOF {
		t.Fatalf("expected clean EOF after golden records, got %v", err)
	}
}

// framesEquivalent reports whether two encoded streams decode (and
// reassemble, for delta records) to identical frame sequences — same
// windows, iterations, kinds and pixels.
func framesEquivalent(t *testing.T, a, b []byte) bool {
	t.Helper()
	ra, rb := bufio.NewReader(bytes.NewReader(a)), bufio.NewReader(bytes.NewReader(b))
	asmA, asmB := gfx.NewReassembler(), gfx.NewReassembler()
	for {
		fa, erra := gfx.ReadRecord(ra)
		fb, errb := gfx.ReadRecord(rb)
		if erra == io.EOF && errb == io.EOF {
			return true
		}
		if erra != nil || errb != nil {
			return false
		}
		if fa.Window != fb.Window || fa.Iter != fb.Iter || fa.Kind != fb.Kind {
			return false
		}
		ia, ea := asmA.Apply(fa)
		ib, eb := asmB.Apply(fb)
		if ea != nil || eb != nil || !ia.Equal(ib) {
			return false
		}
	}
}
