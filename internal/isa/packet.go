package isa

import (
	"fmt"
	"math/bits"
)

// OLPacket is the OrderLight packet of Figure 8. The hardware format is
// 42 bits:
//
//	[ 1: 0]  2 b  packet ID (distinguishes OL packets from loads/stores)
//	[ 5: 2]  4 b  channel ID
//	[ 9: 6]  4 b  memory-group ID
//	[41:10] 32 b  packet number within (channel, group)
//
// The packet can be extended with additional 4-bit memory-group fields to
// order across multiple groups (§5.3.1); ExtraMask carries those. Only
// the base 42-bit field is bit-packed by Encode.
type OLPacket struct {
	PktID   uint8  // 2-bit type tag; PktIDOrderLight for OL packets
	Channel uint8  // 4-bit memory-channel ID
	Group   uint8  // 4-bit memory-group ID
	Number  uint32 // 32-bit packet number within (channel, group)

	// ExtraMask holds the additional memory-groups the packet orders
	// (the optional repeated 4-bit fields of §5.3.1) as a bit set: bit g
	// set orders group g too. A 4-bit group ID fits 16 bits exactly, and
	// a mask keeps the packet free of pointers. Not bit-packed.
	ExtraMask uint16
}

// GroupMask folds a list of memory-group IDs into an ExtraMask. IDs must
// be below 16; gpu.NewMachine rejects programs whose instructions name
// any group the configuration does not have.
func GroupMask(groups []uint8) uint16 {
	var m uint16
	for _, g := range groups {
		m |= 1 << g
	}
	return m
}

// Packet-ID values for the 2-bit type tag.
const (
	PktIDData       uint8 = 0 // normal load/store request
	PktIDOrderLight uint8 = 3 // OrderLight packet
)

// Field widths and shifts of the Figure 8 layout.
const (
	olPktIDBits   = 2
	olChannelBits = 4
	olGroupBits   = 4
	olNumberBits  = 32

	olChannelShift = olPktIDBits
	olGroupShift   = olChannelShift + olChannelBits
	olNumberShift  = olGroupShift + olGroupBits

	// OLPacketBits is the total width of the base packet: 42 bits.
	OLPacketBits = olNumberShift + olNumberBits
)

// Encode packs the base packet fields into the low 42 bits of a uint64
// exactly as Figure 8 lays them out.
func (p OLPacket) Encode() uint64 {
	return uint64(p.PktID&0b11) |
		uint64(p.Channel&0b1111)<<olChannelShift |
		uint64(p.Group&0b1111)<<olGroupShift |
		uint64(p.Number)<<olNumberShift
}

// DecodeOLPacket unpacks a 42-bit packet produced by Encode.
func DecodeOLPacket(w uint64) OLPacket {
	return OLPacket{
		PktID:   uint8(w & 0b11),
		Channel: uint8(w >> olChannelShift & 0b1111),
		Group:   uint8(w >> olGroupShift & 0b1111),
		Number:  uint32(w >> olNumberShift),
	}
}

// Valid reports whether the packet's fields fit their hardware widths
// and the packet ID marks an OrderLight packet.
func (p OLPacket) Valid() bool {
	return p.PktID == PktIDOrderLight && p.Channel <= 15 && p.Group <= 15
}

// Extra returns the extension groups as a mask without the base group,
// so iterating its bits visits each additional group exactly once.
func (p OLPacket) Extra() uint16 { return p.ExtraMask &^ (1 << p.Group) }

// Groups returns every memory-group the packet orders: the base group
// first, then the extension groups in ascending order, deduplicated.
// It allocates; hot paths walk Group and the bits of Extra instead.
func (p OLPacket) Groups() []uint8 {
	out := []uint8{p.Group}
	return append(out, maskGroups(p.Extra())...)
}

// maskGroups lists the set bits of a group mask in ascending order.
func maskGroups(m uint16) []uint8 {
	var out []uint8
	for ; m != 0; m &= m - 1 {
		out = append(out, uint8(bits.TrailingZeros16(m)))
	}
	return out
}

// String implements fmt.Stringer.
func (p OLPacket) String() string {
	if p.Extra() == 0 {
		return fmt.Sprintf("OL{ch%d g%d #%d}", p.Channel, p.Group, p.Number)
	}
	return fmt.Sprintf("OL{ch%d g%d+%v #%d}", p.Channel, p.Group, maskGroups(p.Extra()), p.Number)
}
