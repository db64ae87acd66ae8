// Package layers defines the wire formats the runnable netstack speaks:
// Ethernet II, IPv4, UDP and a TCP subset. Decoders parse into caller-
// preallocated structs without allocating (the gopacket DecodingLayer
// idiom), and encoders write into caller-provided space so the netstack
// can prepend headers into mbuf headroom without copies.
package layers

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ldlp/internal/checksum"
)

// be is the network byte order.
var be = binary.BigEndian

// Common decode errors.
var (
	ErrTruncated   = errors.New("layers: truncated header")
	ErrBadVersion  = errors.New("layers: bad IP version")
	ErrBadChecksum = errors.New("layers: bad checksum")
	ErrBadLength   = errors.New("layers: bad length field")
)

// EtherType values.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Header sizes in bytes.
const (
	EthernetLen = 14
	IPv4MinLen  = 20
	UDPLen      = 8
	TCPMinLen   = 20
)

// MACAddr is a 48-bit Ethernet address.
type MACAddr [6]byte

// String formats the address conventionally.
func (a MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IPAddr is an IPv4 address.
type IPAddr [4]byte

// String formats the address in dotted quad.
func (a IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst, Src  MACAddr
	EtherType uint16
}

// Decode parses the header from b, returning the header length.
func (h *Ethernet) Decode(b []byte) (int, error) {
	if len(b) < EthernetLen {
		return 0, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = be.Uint16(b[12:14])
	return EthernetLen, nil
}

// Encode writes the header into b (which must hold EthernetLen bytes).
func (h *Ethernet) Encode(b []byte) int {
	_ = b[EthernetLen-1]
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	be.PutUint16(b[12:14], h.EtherType)
	return EthernetLen
}

// IPv4 is an IPv4 header (options unsupported on encode, skipped on
// decode).
type IPv4 struct {
	IHL      int // header length in bytes
	TOS      byte
	TotalLen int
	ID       uint16
	Flags    byte
	FragOff  int
	TTL      byte
	Protocol byte
	Checksum uint16
	Src, Dst IPAddr
}

// MoreFragments reports the MF bit.
func (h *IPv4) MoreFragments() bool { return h.Flags&0x1 != 0 }

// IsFragment reports whether this packet is any fragment of a larger
// datagram.
func (h *IPv4) IsFragment() bool { return h.MoreFragments() || h.FragOff != 0 }

// Decode parses and validates the header, verifying the header checksum.
func (h *IPv4) Decode(b []byte) (int, error) {
	if len(b) < IPv4MinLen {
		return 0, ErrTruncated
	}
	if v := b[0] >> 4; v != 4 {
		return 0, ErrBadVersion
	}
	h.IHL = int(b[0]&0x0f) * 4
	if h.IHL < IPv4MinLen || h.IHL > len(b) {
		return 0, ErrBadLength
	}
	h.TOS = b[1]
	h.TotalLen = int(be.Uint16(b[2:4]))
	if h.TotalLen < h.IHL {
		return 0, ErrBadLength
	}
	h.ID = be.Uint16(b[4:6])
	ff := be.Uint16(b[6:8])
	h.Flags = byte(ff >> 13)
	h.FragOff = int(ff&0x1fff) * 8
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = be.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if checksum.Simple(b[:h.IHL]) != 0 {
		return 0, ErrBadChecksum
	}
	return h.IHL, nil
}

// Encode writes a 20-byte header (no options) with a correct checksum
// into b.
func (h *IPv4) Encode(b []byte) int {
	_ = b[IPv4MinLen-1]
	b[0] = 4<<4 | IPv4MinLen/4
	b[1] = h.TOS
	be.PutUint16(b[2:4], uint16(h.TotalLen))
	be.PutUint16(b[4:6], h.ID)
	be.PutUint16(b[6:8], uint16(h.Flags)<<13|uint16(h.FragOff/8))
	b[8] = h.TTL
	b[9] = h.Protocol
	be.PutUint16(b[10:12], 0)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	be.PutUint16(b[10:12], checksum.Simple(b[:IPv4MinLen]))
	return IPv4MinLen
}

// pseudoHeader accumulates the TCP/UDP pseudo-header into acc.
func pseudoHeader(acc *checksum.Accumulator, src, dst IPAddr, proto byte, length int) {
	acc.Add(src[:])
	acc.Add(dst[:])
	acc.AddUint16(uint16(proto))
	acc.AddUint16(uint16(length))
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           int
	Checksum         uint16
}

// Decode parses the header and, when ipSrc/ipDst are supplied and the
// checksum field is nonzero, verifies the checksum over payload.
func (h *UDP) Decode(b []byte, src, dst IPAddr) (int, error) {
	if len(b) < UDPLen {
		return 0, ErrTruncated
	}
	h.SrcPort = be.Uint16(b[0:2])
	h.DstPort = be.Uint16(b[2:4])
	h.Length = int(be.Uint16(b[4:6]))
	h.Checksum = be.Uint16(b[6:8])
	if h.Length < UDPLen || h.Length > len(b) {
		return 0, ErrBadLength
	}
	if h.Checksum != 0 {
		var acc checksum.Accumulator
		pseudoHeader(&acc, src, dst, ProtoUDP, h.Length)
		acc.Add(b[:h.Length])
		if acc.Sum16() != 0 {
			return 0, ErrBadChecksum
		}
	}
	return UDPLen, nil
}

// Encode writes the header into b and computes the checksum over the
// pseudo-header plus payload.
func (h *UDP) Encode(b []byte, payload []byte, src, dst IPAddr) int {
	_ = b[UDPLen-1]
	h.Length = UDPLen + len(payload)
	be.PutUint16(b[0:2], h.SrcPort)
	be.PutUint16(b[2:4], h.DstPort)
	be.PutUint16(b[4:6], uint16(h.Length))
	be.PutUint16(b[6:8], 0)
	var acc checksum.Accumulator
	pseudoHeader(&acc, src, dst, ProtoUDP, h.Length)
	acc.Add(b[:UDPLen])
	acc.Add(payload)
	sum := acc.Sum16()
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted 0 means "no checksum"
	}
	be.PutUint16(b[6:8], sum)
	h.Checksum = sum
	return UDPLen
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCP is a TCP header (no options on encode; options skipped on decode).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          int // header length in bytes
	Flags            byte
	Window           uint16
	Checksum         uint16
}

// Decode parses the header, verifying the checksum over the whole segment
// (seg must span the entire TCP segment: header + payload).
func (h *TCP) Decode(seg []byte, src, dst IPAddr) (int, error) {
	if len(seg) < TCPMinLen {
		return 0, ErrTruncated
	}
	h.SrcPort = be.Uint16(seg[0:2])
	h.DstPort = be.Uint16(seg[2:4])
	h.Seq = be.Uint32(seg[4:8])
	h.Ack = be.Uint32(seg[8:12])
	h.DataOff = int(seg[12]>>4) * 4
	if h.DataOff < TCPMinLen || h.DataOff > len(seg) {
		return 0, ErrBadLength
	}
	h.Flags = seg[13] & 0x3f
	h.Window = be.Uint16(seg[14:16])
	h.Checksum = be.Uint16(seg[16:18])
	var acc checksum.Accumulator
	pseudoHeader(&acc, src, dst, ProtoTCP, len(seg))
	acc.Add(seg)
	if acc.Sum16() != 0 {
		return 0, ErrBadChecksum
	}
	return h.DataOff, nil
}

// Encode writes a 20-byte header into b with the checksum computed over
// the pseudo-header, header and payload.
func (h *TCP) Encode(b []byte, payload []byte, src, dst IPAddr) int {
	_ = b[TCPMinLen-1]
	be.PutUint16(b[0:2], h.SrcPort)
	be.PutUint16(b[2:4], h.DstPort)
	be.PutUint32(b[4:8], h.Seq)
	be.PutUint32(b[8:12], h.Ack)
	b[12] = (TCPMinLen / 4) << 4
	b[13] = h.Flags
	be.PutUint16(b[14:16], h.Window)
	be.PutUint16(b[16:18], 0)
	be.PutUint16(b[18:20], 0) // urgent pointer unused
	var acc checksum.Accumulator
	pseudoHeader(&acc, src, dst, ProtoTCP, TCPMinLen+len(payload))
	acc.Add(b[:TCPMinLen])
	acc.Add(payload)
	h.Checksum = acc.Sum16()
	be.PutUint16(b[16:18], h.Checksum)
	h.DataOff = TCPMinLen
	return TCPMinLen
}
