package gfx

// Fuzzing of the frame wire decoders. A viewer decodes whatever a peer,
// a proxy or a broken network hands it, so for ANY bytes ReadRecord and
// ApplyDelta must return an error or a value, never panic — an
// out-of-bounds write into the frame would panic here. The round-trip
// fuzzer checks the encoder side: EncodeDelta followed by ApplyDelta
// restores a fuzzer-built image exactly, at every depth and tile shape.
//
//	go test -run '^$' -fuzz '^FuzzApplyDelta$' -fuzztime 15s ./internal/gfx/

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"testing"

	"easypap/internal/img2d"
)

// goldenRecords reads every record of the checked-in golden stream.
func goldenRecords(f *testing.F) []*Record {
	data, err := os.ReadFile("testdata/stream.golden")
	if err != nil {
		f.Fatal(err)
	}
	var recs []*Record
	r := bufio.NewReader(bytes.NewReader(data))
	for {
		rec, err := ReadRecord(r)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			f.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func FuzzApplyDelta(f *testing.F) {
	for _, rec := range goldenRecords(f) {
		if rec.Kind == RecordDelta {
			f.Add(rec.Payload)
		}
	}
	_, cases := malformedDeltaPayloads(f)
	for _, c := range cases {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Patch an image of the dimension the payload claims, when that is
		// small, so mutations get past the dimension check.
		dim := 16
		if len(payload) >= 6 {
			if d := binary.LittleEndian.Uint32(payload[2:]); d >= 1 && d <= 64 {
				dim = int(d)
			}
		}
		_ = ApplyDelta(img2d.New(dim), payload) // must not panic, whatever the input
	})
}

func FuzzReadRecord(f *testing.F) {
	golden, err := os.ReadFile("testdata/stream.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, rec := range goldenRecords(f) {
		f.Add(rec.Encode())
	}
	for _, s := range []string{
		"not a header at all\n", "\n", "EZFRAME main\n", "EZFRAME main x 4\nabcd",
		"EZFRAME main 1 -4\n", "EZWRONG main 1 4\nabcd", "EZDELTA main 2 3\nab",
		"EZFRAME main 1 999999999999\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			rec, err := ReadRecord(r) // must not panic, whatever the input
			if err != nil {
				return
			}
			// Stability: what was read re-encodes to a record that reads
			// back the same.
			again, err := ReadRecord(bufio.NewReader(bytes.NewReader(rec.Encode())))
			if err != nil {
				t.Fatalf("re-encoded record %s/%d unreadable: %v", rec.Window, rec.Iter, err)
			}
			if again.Kind != rec.Kind || again.Window != rec.Window || again.Iter != rec.Iter ||
				!bytes.Equal(again.Payload, rec.Payload) {
				t.Fatalf("re-encode not stable: %+v vs %+v", rec, again)
			}
		}
	})
}

// FuzzDeltaRoundTrip builds an image and a dirty tile set from the
// fuzzer's bytes, scrambles the dirty tiles of a copy, and checks that
// the delta restores the image exactly.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint8(7), uint8(7), uint8(0), uint16(1), []byte{0, 1}, []byte{0xff})        // depth 1
	f.Add(uint8(3), uint8(1), uint8(1), uint16(3), []byte{5, 9, 2}, []byte{0x5a})     // depth 2
	f.Add(uint8(4), uint8(4), uint8(1), uint16(15), []byte{1, 2, 3, 4, 5}, []byte{3}) // depth 4
	f.Add(uint8(7), uint8(5), uint8(1), uint16(200), []byte("palette"), []byte{0xf0}) // depth 8
	f.Add(uint8(7), uint8(7), uint8(1), uint16(299), []byte("raw pixels"), []byte{1}) // depth 32
	f.Add(uint8(2), uint8(6), uint8(0), uint16(4), []byte{7}, []byte{})               // no dirty tile
	f.Fuzz(func(t *testing.T, tw, th, k uint8, colours uint16, pix, mask []byte) {
		tileW, tileH := int(tw%8)+1, int(th%8)+1
		dim := tileW * tileH * (int(k%2) + 1)
		set := &TileSet{TilesX: dim / tileW, TilesY: dim / tileH, TileW: tileW, TileH: tileH}
		for tile := 0; tile < set.TilesX*set.TilesY && len(mask) > 0; tile++ {
			if mask[tile/8%len(mask)]&(1<<(tile%8)) != 0 {
				set.Tiles = append(set.Tiles, int32(tile))
			}
		}
		// Up to 300 colours, so records past the 256-colour palette go raw.
		n := int(colours%300) + 1
		next := img2d.New(dim)
		for i, px := 0, next.Pixels(); i < len(px); i++ {
			v := i
			if len(pix) > 0 {
				v = int(pix[i%len(pix)]) | int(pix[(i+1)%len(pix)])<<8 + i/len(pix)
			}
			px[i] = img2d.Pixel(v%n) * 0x9e3779b1 // distinct colours for distinct indices
		}
		base := next.Clone()
		for _, tile := range set.Tiles {
			x0, y0 := set.origin(tile)
			for y := y0; y < y0+tileH; y++ {
				for x := x0; x < x0+tileW; x++ {
					base.Set(y, x, ^next.Get(y, x))
				}
			}
		}
		payload, err := EncodeDelta(next, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyDelta(base, payload); err != nil {
			t.Fatal(err)
		}
		if !base.Equal(next) {
			t.Fatalf("round trip differs in %d pixels", base.DiffCount(next))
		}
	})
}
