package isa

import (
	"math/bits"
	"testing"
)

// FuzzPacketRoundTrip checks the Figure 8 bit layout against arbitrary
// 64-bit words: decoding any word and re-encoding it must reproduce the
// word's low 42 bits exactly, the encoding must never spill past
// OLPacketBits, and decode∘encode must be the identity on decoded
// packets. The extension-group mask rides along: it is never
// bit-packed, and Groups must list the base group first and then each
// other masked group once, ascending.
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(3), uint16(0)) // bare OrderLight tag
	f.Add(OLPacket{PktID: PktIDOrderLight, Channel: 15, Group: 15, Number: 1<<32 - 1}.Encode(), uint16(0xffff))
	f.Add(OLPacket{PktID: PktIDOrderLight, Channel: 7, Group: 3, Number: 41}.Encode(), uint16(0b11100))
	f.Add(^uint64(0), uint16(1)) // every bit set, including the 22 beyond the packet
	f.Fuzz(func(t *testing.T, w uint64, mask uint16) {
		p := DecodeOLPacket(w)
		p.ExtraMask = mask
		if e := p.Encode(); e != DecodeOLPacket(w).Encode() {
			t.Fatalf("ExtraMask %#x leaked into the encoding: %#x", mask, e)
		}
		gs := p.Groups()
		if gs[0] != p.Group || len(gs) != 1+bits.OnesCount16(mask&^(1<<p.Group)) {
			t.Fatalf("Groups() = %v for base %d, mask %#x", gs, p.Group, mask)
		}
		for i := 2; i < len(gs); i++ {
			if gs[i] <= gs[i-1] {
				t.Fatalf("Groups() = %v: extension groups not strictly ascending", gs)
			}
		}
		e := p.Encode()
		if e >= 1<<OLPacketBits {
			t.Fatalf("Encode(%+v) = %#x spills past %d bits", p, e, OLPacketBits)
		}
		if mask := uint64(1)<<OLPacketBits - 1; e != w&mask {
			t.Fatalf("decode∘encode(%#x) = %#x, want the low %d bits %#x", w, e, OLPacketBits, w&mask)
		}
		q := DecodeOLPacket(e)
		if q.PktID != p.PktID || q.Channel != p.Channel || q.Group != p.Group || q.Number != p.Number {
			t.Fatalf("re-decode mismatch: %+v vs %+v", q, p)
		}
		// Valid packets must survive the trip with validity intact.
		if p.Valid() != q.Valid() {
			t.Fatalf("validity not preserved: %t vs %t", p.Valid(), q.Valid())
		}
	})
}
