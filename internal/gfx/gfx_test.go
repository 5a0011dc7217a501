package gfx

import (
	"os"
	"path/filepath"
	"testing"

	"easypap/internal/img2d"
)

func TestNullSink(t *testing.T) {
	var s Null
	if err := s.Frame("main", 1, img2d.New(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPNGSinkWritesFrames(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "frames")
	s, err := NewPNGSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	im := img2d.New(8)
	im.Fill(img2d.Red)
	for iter := 1; iter <= 3; iter++ {
		if err := s.Frame("main", iter, im); err != nil {
			t.Fatal(err)
		}
	}
	if s.Written() != 3 {
		t.Errorf("written = %d", s.Written())
	}
	for _, name := range []string{"main_0001.png", "main_0002.png", "main_0003.png"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing frame %s: %v", name, err)
		}
	}
	back, err := img2d.LoadPNG(filepath.Join(dir, "main_0001.png"))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(im) {
		t.Error("frame content altered")
	}
}

func TestPNGSinkEvery(t *testing.T) {
	s, err := NewPNGSink(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	im := img2d.New(4)
	for iter := 1; iter <= 9; iter++ {
		if err := s.Frame("main", iter, im); err != nil {
			t.Fatal(err)
		}
	}
	if s.Written() != 3 { // iterations 3, 6, 9
		t.Errorf("written = %d, want 3", s.Written())
	}
}
