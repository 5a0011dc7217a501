package img2d

// Encoding of images to standard formats. EASYPAP displays frames through
// SDL; this port materializes them as PNG or PPM files instead (see
// DESIGN.md §1), which keeps the per-iteration refresh path identical while
// remaining usable on headless machines.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"image"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ToNRGBA converts the image into a standard library image.NRGBA, sharing
// no storage.
func (im *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, im.dim, im.dim))
	im.fillNRGBA(out)
	return out
}

// fillNRGBA writes the pixels into dst, a dim x dim NRGBA image. A Pixel
// is R<<24|G<<16|B<<8|A, so its big-endian bytes are the NRGBA bytes.
func (im *Image) fillNRGBA(dst *image.NRGBA) {
	for y := 0; y < im.dim; y++ {
		out := dst.Pix[y*dst.Stride : y*dst.Stride+4*im.dim]
		for x, p := range im.Row(y) {
			binary.BigEndian.PutUint32(out[4*x:], p)
		}
	}
}

// FromNRGBA converts a standard library NRGBA image into an Image. The
// input must be square.
func FromNRGBA(src *image.NRGBA) (*Image, error) {
	b := src.Bounds()
	if b.Dx() != b.Dy() {
		return nil, fmt.Errorf("img2d: image is %dx%d, want square", b.Dx(), b.Dy())
	}
	im := New(b.Dx())
	for y := 0; y < im.dim; y++ {
		for x := 0; x < im.dim; x++ {
			c := src.NRGBAAt(b.Min.X+x, b.Min.Y+y)
			im.Set(y, x, RGBA(c.R, c.G, c.B, c.A))
		}
	}
	return im, nil
}

// pngEncoder is the one PNG encoder every image goes through. Its
// BufferPool hands each encode the zlib compressor, row buffers and
// bufio.Writer of an earlier one, reset instead of rebuilt: a fresh zlib
// compressor alone allocates ~0.8 MB before a byte is compressed. The
// output is png.Encode's, byte for byte.
var pngEncoder = png.Encoder{BufferPool: &pngBuffers{}}

// pngBuffers is a png.EncoderBufferPool backed by a sync.Pool.
type pngBuffers struct{ p sync.Pool }

func (b *pngBuffers) Get() *png.EncoderBuffer {
	buf, _ := b.p.Get().(*png.EncoderBuffer)
	return buf // nil when empty: the encoder then allocates
}

func (b *pngBuffers) Put(buf *png.EncoderBuffer) { b.p.Put(buf) }

// staging recycles the NRGBA images EncodePNG converts into. One of
// another size than the image being encoded is dropped.
var staging sync.Pool

// EncodePNG writes the image as PNG.
func (im *Image) EncodePNG(w io.Writer) error {
	m, _ := staging.Get().(*image.NRGBA)
	if m == nil || m.Rect.Dx() != im.dim || m.Rect.Dy() != im.dim {
		m = image.NewNRGBA(image.Rect(0, 0, im.dim, im.dim))
	}
	im.fillNRGBA(m)
	err := pngEncoder.Encode(w, m)
	staging.Put(m)
	return err
}

// SavePNG writes the image to path as PNG, creating parent directories.
func (im *Image) SavePNG(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("img2d: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("img2d: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := im.EncodePNG(bw); err != nil {
		return fmt.Errorf("img2d: encoding %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("img2d: %w", err)
	}
	return f.Close()
}

// DecodePNG reads a square PNG stream into an Image.
func DecodePNG(r io.Reader) (*Image, error) {
	src, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("img2d: decoding png: %w", err)
	}
	b := src.Bounds()
	if b.Dx() != b.Dy() {
		return nil, fmt.Errorf("img2d: image is %dx%d, want square", b.Dx(), b.Dy())
	}
	im := New(b.Dx())
	for y := 0; y < im.dim; y++ {
		for x := 0; x < im.dim; x++ {
			r, g, bl, a := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			im.Set(y, x, RGBA(uint8(r>>8), uint8(g>>8), uint8(bl>>8), uint8(a>>8)))
		}
	}
	return im, nil
}

// LoadPNG reads a square PNG file into an Image.
func LoadPNG(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("img2d: %w", err)
	}
	defer f.Close()
	im, err := DecodePNG(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err) // err already carries the img2d prefix
	}
	return im, nil
}

// EncodePPM writes the image as a binary PPM (P6), ignoring alpha. PPM is
// handy for quick inspection with no decoder dependencies.
func (im *Image) EncodePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.dim, im.dim); err != nil {
		return err
	}
	buf := make([]byte, 3*im.dim)
	for y := 0; y < im.dim; y++ {
		row := im.Row(y)
		for x, p := range row {
			buf[3*x] = R(p)
			buf[3*x+1] = G(p)
			buf[3*x+2] = B(p)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SavePPM writes the image to path as binary PPM, creating parent
// directories.
func (im *Image) SavePPM(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("img2d: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("img2d: %w", err)
	}
	defer f.Close()
	if err := im.EncodePPM(f); err != nil {
		return fmt.Errorf("img2d: encoding %s: %w", path, err)
	}
	return f.Close()
}

// ASCII renders a coarse character-art preview of the image, one character
// per thumbnail cell, darkest to brightest. It is the terminal stand-in for
// the SDL window when even PNG output is unwanted (e.g. in tests and logs).
func (im *Image) ASCII(cols int) string {
	if cols <= 0 {
		cols = 64
	}
	if cols > im.dim {
		cols = im.dim
	}
	th, err := im.Thumbnail(cols)
	if err != nil {
		return ""
	}
	const ramp = " .:-=+*#%@"
	out := make([]byte, 0, cols*(cols/2+1))
	// Terminal cells are roughly twice as tall as wide: sample every other
	// row so the preview keeps the image's aspect ratio.
	for y := 0; y < cols; y += 2 {
		row := th.Row(y)
		for _, p := range row {
			idx := int(Brightness(p)) * (len(ramp) - 1) / 255
			out = append(out, ramp[idx])
		}
		out = append(out, '\n')
	}
	return string(out)
}
