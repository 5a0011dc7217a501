package kernels

// Golden regression for mandel: for every variant, on shapes whose tiles
// cut rows into even, odd and single-pixel segments, it pins each
// iteration's image checksum and the trace's work total. The
// determinism tests only compare variants with one another, so a fault in
// the pixel loop they all share would pass them; this file would not.
//
// Regenerate only after an intentional behaviour change:
//
//	go test ./internal/kernels/ -run TestMandelGolden -update

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"easypap/internal/core"
	"easypap/internal/img2d"
)

const mandelGoldenPath = "testdata/mandel.golden"

// frameHasher is a frame sink that records the SHA-256 of every main
// frame, hashed as the run's Result.Checksum hashes the final image.
type frameHasher struct{ sums []string }

func (f *frameHasher) Frame(window string, _ int, img *img2d.Image) error {
	if window != "main" {
		return nil
	}
	h := sha256.New()
	var b [4]byte
	for _, p := range img.Pixels() {
		binary.LittleEndian.PutUint32(b[:], p)
		h.Write(b[:])
	}
	f.sums = append(f.sums, fmt.Sprintf("%x", h.Sum(nil)))
	return nil
}

func (f *frameHasher) Close() error { return nil }

func TestMandelGolden(t *testing.T) {
	shapes := []struct{ dim, tileW, tileH, iters int }{
		{64, 8, 8, 3},
		{36, 9, 9, 3},  // odd segment lengths
		{16, 1, 16, 3}, // single-pixel segments
		{128, 16, 16, 3},
		{256, 32, 32, 3},
	}
	var names, got []string
	for _, s := range shapes {
		for _, v := range []string{"seq", "omp", "omp_tiled", "team", "task"} {
			name := fmt.Sprintf("mandel/%s/%dx%d/tile%dx%d", v, s.dim, s.dim, s.tileW, s.tileH)
			cfg := core.Config{Kernel: "mandel", Variant: v, Dim: s.dim, TileW: s.tileW, TileH: s.tileH,
				Iterations: s.iters, Threads: 2, NoDisplay: true,
				TracePath: filepath.Join(t.TempDir(), "m.evt")}
			sink := &frameHasher{}
			out := runWith(t, cfg, core.RunOptions{Sink: sink})
			if len(sink.sums) != s.iters || sink.sums[s.iters-1] != out.Result.Checksum {
				t.Fatalf("%s: %d frames, last %.12s, result checksum %.12s",
					name, len(sink.sums), sink.sums[len(sink.sums)-1], out.Result.Checksum)
			}
			var work int64
			for _, e := range out.Trace.Events {
				work += e.Work
			}
			var b strings.Builder
			fmt.Fprintf(&b, "case %s\n", name)
			for it, sum := range sink.sums {
				fmt.Fprintf(&b, "  iter %d checksum %s\n", it+1, sum)
			}
			fmt.Fprintf(&b, "  work total %d\n", work)
			names, got = append(names, name), append(got, b.String())
		}
	}
	checkGolden(t, mandelGoldenPath, names, got)
}
