package img2d

import (
	"bytes"
	"image/png"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	for _, dim := range []int{1, 2, 16, 100, 512} {
		im := New(dim)
		if im.Dim() != dim {
			t.Errorf("Dim() = %d, want %d", im.Dim(), dim)
		}
		if im.Len() != dim*dim {
			t.Errorf("Len() = %d, want %d", im.Len(), dim*dim)
		}
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, dim := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", dim)
				}
			}()
			New(dim)
		}()
	}
}

func TestFromPixels(t *testing.T) {
	pix := make([]Pixel, 16)
	im, err := FromPixels(4, pix)
	if err != nil {
		t.Fatal(err)
	}
	im.Set(2, 3, Red)
	if pix[2*4+3] != Red {
		t.Error("FromPixels does not alias the input slice")
	}
	if _, err := FromPixels(4, make([]Pixel, 15)); err == nil {
		t.Error("FromPixels accepted a short slice")
	}
	if _, err := FromPixels(0, nil); err == nil {
		t.Error("FromPixels accepted dim 0")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	im := New(8)
	rng := rand.New(rand.NewSource(1))
	want := make(map[[2]int]Pixel)
	for i := 0; i < 100; i++ {
		y, x := rng.Intn(8), rng.Intn(8)
		p := Pixel(rng.Uint32())
		im.Set(y, x, p)
		want[[2]int{y, x}] = p
	}
	for k, p := range want {
		if got := im.Get(k[0], k[1]); got != p {
			t.Errorf("Get(%d,%d) = %#x, want %#x", k[0], k[1], got, p)
		}
	}
}

func TestRowAliases(t *testing.T) {
	im := New(4)
	row := im.Row(2)
	row[1] = Green
	if im.Get(2, 1) != Green {
		t.Error("Row does not alias image storage")
	}
	if len(row) != 4 {
		t.Errorf("Row length = %d, want 4", len(row))
	}
}

func TestFillAndFillRect(t *testing.T) {
	im := New(8)
	im.Fill(Blue)
	for i, p := range im.Pixels() {
		if p != Blue {
			t.Fatalf("pixel %d = %#x after Fill", i, p)
		}
	}
	im.FillRect(2, 3, 4, 2, Red)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			inside := x >= 2 && x < 6 && y >= 3 && y < 5
			want := Blue
			if inside {
				want = Red
			}
			if im.Get(y, x) != want {
				t.Errorf("(%d,%d) = %#x, want %#x", y, x, im.Get(y, x), want)
			}
		}
	}
}

func TestFillRectClipping(t *testing.T) {
	im := New(4)
	// Entirely outside, negative origin, overflowing: none may panic.
	im.FillRect(-10, -10, 5, 5, Magenta) // fully off-image: no effect
	im.FillRect(-2, -2, 3, 3, Red)       // clips to [0,1)x[0,1)
	im.FillRect(3, 3, 100, 100, Green)
	im.FillRect(10, 10, 5, 5, Blue)
	im.FillRect(2, 2, -1, -1, Yellow)
	if im.Get(1, 1) != 0 {
		t.Error("fully off-image fill leaked into the image")
	}
	if im.Get(0, 0) != Red {
		t.Error("clipped top-left fill missing")
	}
	if im.Get(3, 3) != Green {
		t.Error("clipped bottom-right fill missing")
	}
}

func TestCloneIsDeep(t *testing.T) {
	im := New(4)
	im.Fill(Red)
	cp := im.Clone()
	cp.Set(0, 0, Green)
	if im.Get(0, 0) != Red {
		t.Error("Clone shares storage with original")
	}
	if !im.Equal(im.Clone()) {
		t.Error("Clone not equal to original")
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(4), New(4)
	a.Fill(Cyan)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("CopyFrom did not copy pixels")
	}
	if err := b.CopyFrom(New(5)); err == nil {
		t.Error("CopyFrom accepted mismatched dimensions")
	}
}

func TestEqualAndDiffCount(t *testing.T) {
	a, b := New(3), New(3)
	if !a.Equal(b) {
		t.Error("fresh images not equal")
	}
	if n := a.DiffCount(b); n != 0 {
		t.Errorf("DiffCount = %d, want 0", n)
	}
	b.Set(1, 1, Red)
	b.Set(2, 2, Green)
	if a.Equal(b) {
		t.Error("different images reported equal")
	}
	if n := a.DiffCount(b); n != 2 {
		t.Errorf("DiffCount = %d, want 2", n)
	}
	if n := a.DiffCount(New(5)); n != -1 {
		t.Errorf("DiffCount across sizes = %d, want -1", n)
	}
}

func TestThumbnailUniform(t *testing.T) {
	im := New(64)
	im.Fill(RGB(100, 150, 200))
	th, err := im.Thumbnail(8)
	if err != nil {
		t.Fatal(err)
	}
	if th.Dim() != 8 {
		t.Fatalf("thumbnail dim = %d", th.Dim())
	}
	for _, p := range th.Pixels() {
		if p != RGB(100, 150, 200) {
			t.Fatalf("uniform thumbnail pixel = %#x", p)
		}
	}
}

func TestThumbnailAveraging(t *testing.T) {
	// Left half black, right half white: a 2-wide thumbnail must keep the
	// split; each half averages to its own color.
	im := New(8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			im.Set(y, x, White)
		}
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 4; x++ {
			im.Set(y, x, Black)
		}
	}
	th, err := im.Thumbnail(2)
	if err != nil {
		t.Fatal(err)
	}
	if B(th.Get(0, 0)) > 10 || B(th.Get(0, 1)) < 245 {
		t.Errorf("thumbnail halves not preserved: %#x %#x", th.Get(0, 0), th.Get(0, 1))
	}
}

func TestThumbnailErrors(t *testing.T) {
	im := New(4)
	if _, err := im.Thumbnail(0); err == nil {
		t.Error("Thumbnail(0) accepted")
	}
	if _, err := im.Thumbnail(5); err == nil {
		t.Error("Thumbnail larger than image accepted")
	}
}

func TestBuffersSwap(t *testing.T) {
	b := NewBuffers(4)
	if b.Dim() != 4 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	b.Cur().Fill(Red)
	b.Next().Fill(Green)
	cur, next := b.Cur(), b.Next()
	b.Swap()
	if b.Cur() != next || b.Next() != cur {
		t.Error("Swap did not exchange buffers")
	}
	b.Swap()
	if b.Cur() != cur || b.Next() != next {
		t.Error("double Swap is not identity")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	im := New(16)
	rng := rand.New(rand.NewSource(7))
	for i := range im.Pixels() {
		im.Pixels()[i] = RGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	path := filepath.Join(t.TempDir(), "sub", "img.png")
	if err := im.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPNG(path)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(back) {
		t.Error("PNG round trip altered pixels")
	}
}

// EncodePNG reuses encoder state and staging images across calls and
// goroutines; its bytes must stay png.Encode's, whatever ran before.
func TestEncodePNGPooledMatchesStdlib(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				im := New(8 << (i % 3)) // sizes alternate: staging images get dropped
				for j := range im.Pixels() {
					im.Pixels()[j] = RGBA(uint8(rng.Intn(4)), uint8(rng.Intn(256)), 9, uint8(255-rng.Intn(2)))
				}
				var got, want bytes.Buffer
				if err := im.EncodePNG(&got); err != nil {
					t.Error(err)
					return
				}
				if err := png.Encode(&want, im.ToNRGBA()); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("goroutine %d encode %d: pooled PNG differs from png.Encode", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNRGBARoundTrip(t *testing.T) {
	im := New(8)
	im.Fill(RGBA(1, 2, 3, 200))
	back, err := FromNRGBA(im.ToNRGBA())
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(back) {
		t.Error("NRGBA round trip altered pixels")
	}
}

func TestPPMEncoding(t *testing.T) {
	im := New(2)
	im.Set(0, 0, RGB(1, 2, 3))
	im.Set(0, 1, RGB(4, 5, 6))
	im.Set(1, 0, RGB(7, 8, 9))
	im.Set(1, 1, RGB(10, 11, 12))
	var buf bytes.Buffer
	if err := im.EncodePPM(&buf); err != nil {
		t.Fatal(err)
	}
	want := "P6\n2 2\n255\n" + string([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if buf.String() != want {
		t.Errorf("PPM = %q, want %q", buf.String(), want)
	}
}

func TestSavePPM(t *testing.T) {
	im := New(4)
	im.Fill(Red)
	path := filepath.Join(t.TempDir(), "d", "f.ppm")
	if err := im.SavePPM(path); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIDimensions(t *testing.T) {
	im := New(64)
	im.Fill(White)
	s := im.ASCII(16)
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != 8 {
		t.Errorf("ASCII preview has %d lines, want 8", lines)
	}
	if im.ASCII(0) == "" {
		t.Error("ASCII with default cols returned empty string")
	}
}

func TestLoadPNGErrors(t *testing.T) {
	if _, err := LoadPNG(filepath.Join(t.TempDir(), "missing.png")); err == nil {
		t.Error("LoadPNG of missing file succeeded")
	}
}

// Property: RGBA and Channels are exact inverses.
func TestQuickColorRoundTrip(t *testing.T) {
	f := func(r, g, b, a uint8) bool {
		rr, gg, bb, aa := Channels(RGBA(r, g, b, a))
		return rr == r && gg == g && bb == b && aa == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: single-channel extractors agree with Channels.
func TestQuickChannelExtractors(t *testing.T) {
	f := func(p uint32) bool {
		r, g, b, a := Channels(p)
		return R(p) == r && G(p) == g && B(p) == b && A(p) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Get(Set(p)) == p at arbitrary in-bounds coordinates.
func TestQuickImageSetGet(t *testing.T) {
	im := New(32)
	f := func(y, x uint8, p uint32) bool {
		yy, xx := int(y)%32, int(x)%32
		im.Set(yy, xx, p)
		return im.Get(yy, xx) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FillRect never panics and never writes outside the clipped
// rectangle.
func TestQuickFillRectClipped(t *testing.T) {
	f := func(x, y int8, w, h uint8) bool {
		im := New(16)
		im.FillRect(int(x), int(y), int(w), int(h), Red)
		for yy := 0; yy < 16; yy++ {
			for xx := 0; xx < 16; xx++ {
				inside := xx >= int(x) && xx < int(x)+int(w) &&
					yy >= int(y) && yy < int(y)+int(h)
				if !inside && im.Get(yy, xx) != 0 {
					return false
				}
				if inside && im.Get(yy, xx) != Red {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHSVPrimaries(t *testing.T) {
	cases := []struct {
		h    float64
		want Pixel
	}{
		{0, Red}, {120, Green}, {240, Blue}, {360, Red}, {-120, Blue},
	}
	for _, c := range cases {
		if got := HSV(c.h, 1, 1); got != c.want {
			t.Errorf("HSV(%v,1,1) = %#x, want %#x", c.h, got, c.want)
		}
	}
	if HSV(123, 0, 1) != White {
		t.Error("zero saturation should give white")
	}
	if HSV(123, 1, 0) != Black {
		t.Error("zero value should give black")
	}
}

func TestHeatColorRamp(t *testing.T) {
	if HeatColor(0) != Black {
		t.Errorf("HeatColor(0) = %#x", HeatColor(0))
	}
	if HeatColor(1) != White {
		t.Errorf("HeatColor(1) = %#x", HeatColor(1))
	}
	// Monotonically non-decreasing brightness.
	prev := -1
	for i := 0; i <= 100; i++ {
		b := int(Brightness(HeatColor(float64(i) / 100)))
		if b < prev {
			t.Fatalf("heat ramp brightness decreased at %d: %d < %d", i, b, prev)
		}
		prev = b
	}
	// Out-of-range inputs clamp.
	if HeatColor(-5) != HeatColor(0) || HeatColor(5) != HeatColor(1) {
		t.Error("HeatColor does not clamp")
	}
}

func TestCPUColorDistinctness(t *testing.T) {
	seen := make(map[Pixel]int)
	for r := 0; r < 48; r++ {
		c := CPUColor(r)
		if prev, dup := seen[c]; dup {
			t.Errorf("CPUColor(%d) == CPUColor(%d)", r, prev)
		}
		seen[c] = r
	}
	if CPUColor(-3) != CPUColor(3) {
		t.Error("negative ranks should mirror positive ranks")
	}
}

func TestScaleEndpoints(t *testing.T) {
	if Scale(Red, Blue, 0) != Red {
		t.Error("Scale t=0 is not a")
	}
	if Scale(Red, Blue, 1) != Blue {
		t.Error("Scale t=1 is not b")
	}
	mid := Scale(Black, White, 0.5)
	r, g, b, _ := Channels(mid)
	if r < 120 || r > 135 || g != r || b != r {
		t.Errorf("midpoint gray = %#x", mid)
	}
	if Scale(Red, Blue, -1) != Red || Scale(Red, Blue, 2) != Blue {
		t.Error("Scale does not clamp t")
	}
}

func TestBrightnessOrdering(t *testing.T) {
	if Brightness(Black) != 0 {
		t.Error("Brightness(Black) != 0")
	}
	if Brightness(White) != 255 {
		t.Error("Brightness(White) != 255")
	}
	if !(Brightness(Green) > Brightness(Red) && Brightness(Red) > Brightness(Blue)) {
		t.Error("Rec.601 ordering green > red > blue violated")
	}
}

func BenchmarkRowFill(b *testing.B) {
	im := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for y := 0; y < 1024; y++ {
			row := im.Row(y)
			for x := range row {
				row[x] = Pixel(x)
			}
		}
	}
}

func BenchmarkGetSet(b *testing.B) {
	im := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for y := 0; y < 1024; y++ {
			for x := 0; x < 1024; x++ {
				im.Set(y, x, im.Get(y, x)+1)
			}
		}
	}
}
