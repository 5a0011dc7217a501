// Package img2d provides the 2D image substrate underlying every EASYPAP
// kernel: square RGBA pixel buffers, the cur/next double-buffer pair that
// stencil kernels swap between iterations, color helpers, thumbnails, and
// PNG/PPM encoding.
//
// In the original C framework pixels live in an SDL surface and are accessed
// through the cur_img(y, x) macro. Here an Image is a flat []uint32 slice
// (one RGBA word per pixel, R in the high byte, A in the low byte, matching
// EASYPAP's representation) with explicit accessors. All hot-path accessors
// are tiny and inline-friendly; kernels that need raw speed can use Row to
// obtain a row slice and index it directly.
package img2d

import (
	"fmt"
)

// Pixel is one RGBA pixel packed as 0xRRGGBBAA, the layout used by EASYPAP.
type Pixel = uint32

// Image is a square DIM x DIM pixel buffer.
//
// The zero value is not usable; create images with New. Image values are
// cheap headers over a shared pixel slice: Clone for a deep copy.
type Image struct {
	dim int
	pix []Pixel
}

// New returns a dim x dim image with all pixels zero (transparent black).
// It panics if dim is not positive: image geometry is a programming error,
// not a runtime condition.
func New(dim int) *Image {
	if dim <= 0 {
		panic(fmt.Sprintf("img2d: invalid dimension %d", dim))
	}
	return &Image{dim: dim, pix: make([]Pixel, dim*dim)}
}

// FromPixels wraps an existing pixel slice of length dim*dim. The image
// aliases the slice; mutations are visible both ways.
func FromPixels(dim int, pix []Pixel) (*Image, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("img2d: invalid dimension %d", dim)
	}
	if len(pix) != dim*dim {
		return nil, fmt.Errorf("img2d: pixel slice has length %d, want %d", len(pix), dim*dim)
	}
	return &Image{dim: dim, pix: pix}, nil
}

// Dim returns the side length of the (square) image.
func (im *Image) Dim() int { return im.dim }

// Len returns the total number of pixels (Dim squared).
func (im *Image) Len() int { return len(im.pix) }

// Get returns the pixel at row y, column x.
func (im *Image) Get(y, x int) Pixel { return im.pix[y*im.dim+x] }

// Set writes the pixel at row y, column x.
func (im *Image) Set(y, x int, p Pixel) { im.pix[y*im.dim+x] = p }

// Row returns the y-th row as a slice aliasing the image storage.
// This is the fast path for inner loops: bounds checks happen once.
func (im *Image) Row(y int) []Pixel { return im.pix[y*im.dim : (y+1)*im.dim] }

// Pixels returns the whole backing slice in row-major order.
func (im *Image) Pixels() []Pixel { return im.pix }

// Fill sets every pixel to p.
func (im *Image) Fill(p Pixel) {
	for i := range im.pix {
		im.pix[i] = p
	}
}

// FillRect sets every pixel of the rectangle (x, y, w, h) to p. The
// rectangle is clipped against the image bounds.
func (im *Image) FillRect(x, y, w, h int, p Pixel) {
	x0, y0, x1, y1 := clipRect(im.dim, x, y, w, h)
	for r := y0; r < y1; r++ {
		row := im.Row(r)
		for c := x0; c < x1; c++ {
			row[c] = p
		}
	}
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	cp := New(im.dim)
	copy(cp.pix, im.pix)
	return cp
}

// CopyFrom copies src's pixels into im. Both images must have the same
// dimension.
func (im *Image) CopyFrom(src *Image) error {
	if src.dim != im.dim {
		return fmt.Errorf("img2d: dimension mismatch %d != %d", src.dim, im.dim)
	}
	copy(im.pix, src.pix)
	return nil
}

// Equal reports whether two images have identical dimensions and pixels.
func (im *Image) Equal(other *Image) bool {
	if im.dim != other.dim {
		return false
	}
	for i, p := range im.pix {
		if other.pix[i] != p {
			return false
		}
	}
	return true
}

// DiffCount returns the number of differing pixels between two same-size
// images, or -1 when the dimensions differ. It is the primitive behind
// "did my parallel variant produce the same output as seq".
func (im *Image) DiffCount(other *Image) int {
	if im.dim != other.dim {
		return -1
	}
	n := 0
	for i, p := range im.pix {
		if other.pix[i] != p {
			n++
		}
	}
	return n
}

// Thumbnail returns a size x size downscaled copy using box averaging on
// each channel. EASYVIEW displays such reduced views next to Gantt charts so
// tasks can be linked to the data they touched. size must be positive and
// not larger than Dim.
func (im *Image) Thumbnail(size int) (*Image, error) {
	if size <= 0 || size > im.dim {
		return nil, fmt.Errorf("img2d: invalid thumbnail size %d for dim %d", size, im.dim)
	}
	th := New(size)
	// Each thumbnail pixel averages a block of source pixels.
	for ty := 0; ty < size; ty++ {
		sy0, sy1 := ty*im.dim/size, (ty+1)*im.dim/size
		if sy1 == sy0 {
			sy1 = sy0 + 1
		}
		for tx := 0; tx < size; tx++ {
			sx0, sx1 := tx*im.dim/size, (tx+1)*im.dim/size
			if sx1 == sx0 {
				sx1 = sx0 + 1
			}
			var r, g, b, a, n uint64
			for sy := sy0; sy < sy1; sy++ {
				row := im.Row(sy)
				for sx := sx0; sx < sx1; sx++ {
					p := row[sx]
					r += uint64(p >> 24)
					g += uint64(p >> 16 & 0xff)
					b += uint64(p >> 8 & 0xff)
					a += uint64(p & 0xff)
					n++
				}
			}
			th.Set(ty, tx, RGBA(uint8(r/n), uint8(g/n), uint8(b/n), uint8(a/n)))
		}
	}
	return th, nil
}

// clipRect clips (x, y, w, h) against a dim x dim square and returns the
// half-open pixel bounds [x0,x1) x [y0,y1).
func clipRect(dim, x, y, w, h int) (x0, y0, x1, y1 int) {
	x0, y0 = max(x, 0), max(y, 0)
	x1, y1 = min(x+w, dim), min(y+h, dim)
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	return
}

// Buffers is the cur/next image pair used by stencil kernels (blur, life,
// sandpile, cc): reads come from Cur, writes go to Next, and Swap exchanges
// them between iterations — mirroring EASYPAP's cur_img/next_img macros and
// the swap_images() helper.
type Buffers struct {
	cur, next *Image
}

// NewBuffers returns a pair of zeroed dim x dim images, taken from the
// free list of that size when it holds images handed back by Release.
func NewBuffers(dim int) *Buffers {
	return &Buffers{cur: lease(dim), next: lease(dim)}
}

// Release hands both images back to the free list, except keep (nil
// keeps neither): a run's loop releases its pair when it ends and keeps
// the current image as its final one.
func (b *Buffers) Release(keep *Image) {
	for _, im := range [2]*Image{b.cur, b.next} {
		if im != keep {
			im.Release()
		}
	}
}

// Cur returns the current (read) image.
func (b *Buffers) Cur() *Image { return b.cur }

// Next returns the next (write) image.
func (b *Buffers) Next() *Image { return b.next }

// Swap exchanges the current and next images.
func (b *Buffers) Swap() { b.cur, b.next = b.next, b.cur }

// Dim returns the image side length.
func (b *Buffers) Dim() int { return b.cur.dim }
