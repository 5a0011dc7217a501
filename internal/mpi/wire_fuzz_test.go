package mpi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzDecodeFrame holds the EZMSG1 decoder, which parses the bodies of
// the halo exchange's HTTP posts, to the contract of the store's
// decoder fuzzers: for any bytes it never panics, never accepts a frame
// whose CRC trailer does not vouch for it, and what it accepts
// re-encodes to a frame that decodes to the same message.
func FuzzDecodeFrame(f *testing.F) {
	for _, payload := range []any{
		true, 42, []uint8{1, 2, 3}, []uint32{7, 1 << 31},
		[]bool{true, false, true}, HaloPacket{Row: []byte{9, 8}, Flags: []bool{false, true}},
		HaloPacket{}, []uint8(nil),
	} {
		frame, err := EncodeFrame(1, 2, 3, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if len(frame) > 6 {
			f.Add(frame[:len(frame)-5]) // truncated
			flipped := append([]byte(nil), frame...)
			flipped[len(flipped)/2] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte("EZMSG1 0 1 2 halo 4\n\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		src, dst, tag, payload, err := DecodeFrame(frame) // must not panic
		if err != nil {
			return
		}
		n := len(frame) - 4
		if n < 0 || crc32.Checksum(frame[:n], wireCRC) != binary.BigEndian.Uint32(frame[n:]) {
			t.Fatalf("decoder accepted a frame its CRC does not vouch for: %q", frame)
		}
		again, err := EncodeFrame(src, dst, tag, payload)
		if err != nil {
			t.Fatalf("re-encoding accepted payload %#v: %v", payload, err)
		}
		src2, dst2, tag2, payload2, err := DecodeFrame(again)
		if err != nil || src2 != src || dst2 != dst || tag2 != tag || !reflect.DeepEqual(payload2, payload) {
			t.Fatalf("re-encode not stable: (%d,%d,%d,%#v) vs (%d,%d,%d,%#v) (%v)",
				src, dst, tag, payload, src2, dst2, tag2, payload2, err)
		}
		if again2, _ := EncodeFrame(src2, dst2, tag2, payload2); !bytes.Equal(again, again2) {
			t.Fatalf("re-encoding is not a fixed point: %q vs %q", again, again2)
		}
	})
}
