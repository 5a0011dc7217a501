package gfx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"easypap/internal/img2d"
)

func gradientImage(dim int) *img2d.Image {
	im := img2d.New(dim)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			im.Set(y, x, img2d.RGB(uint8(x), uint8(y), 128))
		}
	}
	return im
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSink(&buf)
	im1, im2 := gradientImage(16), gradientImage(32)
	if err := sink.Frame("main", 1, im1); err != nil {
		t.Fatal(err)
	}
	if err := sink.Frame("tiling", 2, im2); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	r := bufio.NewReader(&buf)
	f1, err := ReadRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Kind != RecordFull || f1.Window != "main" || f1.Iter != 1 {
		t.Errorf("frame 1 = kind %d %s/%d, want a full main/1", f1.Kind, f1.Window, f1.Iter)
	}
	got, err := img2d.DecodePNG(bytes.NewReader(f1.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != 16 || got.Get(3, 5) != im1.Get(3, 5) {
		t.Error("frame 1 pixels did not survive the round trip")
	}
	f2, err := ReadRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Kind != RecordFull || f2.Window != "tiling" || f2.Iter != 2 {
		t.Errorf("frame 2 = kind %d %s/%d, want a full tiling/2", f2.Kind, f2.Window, f2.Iter)
	}
	if _, err := ReadRecord(r); err != io.EOF {
		t.Errorf("expected clean EOF, got %v", err)
	}
}

func TestStreamTruncatedRecord(t *testing.T) {
	rec, err := EncodeFrameRecord("main", 1, []byte("a PNG of twenty bytes"))
	if err != nil {
		t.Fatal(err)
	}
	trunc := rec[:len(rec)-10]
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(trunc))); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated record: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestStreamMalformedHeader(t *testing.T) {
	if _, err := ReadRecord(bufio.NewReader(strings.NewReader("BOGUS main 1 4\nabcd"))); err == nil {
		t.Error("malformed magic accepted")
	}
}

// The malformed-header battery: every corrupt header a peer (or an
// attacker) could send must map to a typed error — never a panic, never
// an attempt to honor an absurd allocation.
func TestStreamHeaderBattery(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  error // sentinel to match with errors.Is (nil: any error)
	}{
		{"garbage line", "not a header at all\n", ErrMalformedHeader},
		{"empty line", "\n", ErrMalformedHeader},
		{"missing fields", "EZFRAME main\n", ErrMalformedHeader},
		{"non-numeric iter", "EZFRAME main x 4\nabcd", ErrMalformedHeader},
		{"non-numeric size", "EZFRAME main 1 x\n", ErrMalformedHeader},
		{"negative size", "EZFRAME main 1 -4\n", ErrMalformedHeader},
		{"wrong magic", "EZWRONG main 1 4\nabcd", ErrMalformedHeader},
		{"oversized record", fmt.Sprintf("EZFRAME main 1 %d\n", MaxRecordPayload+1), ErrRecordTooLarge},
		{"absurd size", "EZFRAME main 1 999999999999\n", ErrRecordTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRecord(bufio.NewReader(strings.NewReader(tc.input)))
			if err == nil {
				t.Fatalf("ReadRecord accepted %q", tc.input)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("ReadRecord(%q) = %v, want errors.Is(err, %v)", tc.input, err, tc.want)
			}
		})
	}
	// A header at exactly the cap is structurally fine (just truncated
	// here): it must fail with short-payload, not the size cap.
	atCap := fmt.Sprintf("EZFRAME main 1 %d\nxx", MaxRecordPayload)
	if _, err := ReadRecord(bufio.NewReader(strings.NewReader(atCap))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("at-cap header: got %v, want ErrUnexpectedEOF", err)
	}
}

// ReadRecord round-trips both record kinds through Record.Encode.
func TestRecordEncodeRoundTrip(t *testing.T) {
	recs := []*Record{
		{Kind: RecordFull, Window: "main", Iter: 1, Payload: []byte("pngpng")},
		{Kind: RecordDelta, Window: "main", Iter: 2, Payload: []byte{1, 2, 3}},
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		buf.Write(rec.Encode())
	}
	r := bufio.NewReader(&buf)
	for i, want := range recs {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Window != want.Window || got.Iter != want.Iter || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadRecord(r); err != io.EOF {
		t.Errorf("expected clean EOF, got %v", err)
	}
}

func TestStreamRejectsWhitespaceWindow(t *testing.T) {
	if err := NewStreamSink(io.Discard).Frame("bad window", 1, gradientImage(8)); err == nil {
		t.Error("whitespace window name accepted")
	}
}
