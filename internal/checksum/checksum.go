// Package checksum implements the Internet checksum (RFC 1071) in the two
// styles the paper compares in §5.1, plus the machine-model cost harness
// that regenerates Figure 8.
//
// The paper's point: the elaborate, heavily unrolled 4.4BSD in_cksum
// (1104 bytes of code, 992 active) wins with a warm instruction cache, but
// with a cold cache a very simple routine (288 bytes of active code) is
// faster for messages up to ~900 bytes because it fetches far fewer
// instructions from memory. For small-message protocols the cache is
// effectively cold at every message, so small checksum routines win.
//
// Both Go implementations here are real and are used by internal/netstack;
// the cycle-accurate comparison runs on the machine model, since Go cannot
// observe its own I-cache behaviour portably.
package checksum

import "encoding/binary"

// Accumulator computes an Internet checksum incrementally over a sequence
// of byte slices (e.g. an mbuf chain), handling odd-length chunks with the
// RFC 1071 byte-swap rule. The zero value is ready to use.
type Accumulator struct {
	sum uint64
	// odd tracks whether an odd number of bytes has been consumed, i.e.
	// the next byte lands in the low half of a 16-bit word.
	odd bool
}

// Add folds a chunk into the checksum, eight bytes per iteration.
//
// The ones'-complement sum is associative across word sizes: a big-endian
// 64-bit load is pair0·2⁴⁸ + pair1·2³² + pair2·2¹⁶ + pair3, and since
// 2¹⁶ ≡ 1 (mod 2¹⁶−1), adding its two 32-bit halves contributes exactly
// pair0+pair1+pair2+pair3 to the folded sum — bit-identical to the
// byte-pair loop, at an eighth of the iterations. (This is the loop-level
// trick; the paper's Figure 8 point about *code size* vs cycles is made
// by Simple/Unrolled below on the machine model, which this routine does
// not alter.)
//
//ldlp:hotpath
func (a *Accumulator) Add(b []byte) {
	if len(b) == 0 {
		return
	}
	i := 0
	if a.odd {
		// Finish the split word: this byte is the low-order byte.
		a.sum += uint64(b[0])
		i = 1
		a.odd = false
	}
	n := len(b)
	sum := uint64(0)
	for ; i+8 <= n; i += 8 {
		w := binary.BigEndian.Uint64(b[i:])
		sum += w>>32 + w&0xffffffff
	}
	for ; i+1 < n; i += 2 {
		sum += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if i < n {
		sum += uint64(b[i]) << 8
		a.odd = true
	}
	a.sum += sum
	// Partial fold so the running sum can never overflow uint64 no matter
	// how many chunks are added (each Add contributes < 2^33 per 8 input
	// bytes; folding preserves the value mod 0xffff, which is all Sum16
	// reads).
	if a.sum >= 1<<48 {
		a.sum = (a.sum >> 16) + (a.sum & 0xffff)
	}
}

// AddUint16 folds a big-endian 16-bit value (e.g. a pseudo-header field).
// It must only be used at even byte offsets.
func (a *Accumulator) AddUint16(v uint16) {
	if a.odd {
		panic("checksum: AddUint16 at odd offset")
	}
	a.sum += uint64(v)
}

// Sum16 folds the accumulator to 16 bits and complements it, yielding the
// value to place in a checksum field.
//
//ldlp:hotpath
func (a *Accumulator) Sum16() uint16 {
	s := a.sum
	for s > 0xffff {
		s = (s >> 16) + (s & 0xffff)
	}
	return ^uint16(s)
}

// Simple computes the Internet checksum of data with the smallest
// reasonable loop: one 16-bit word per iteration. This is the paper's
// "very simple version": more cycles per byte, far less code.
//
//ldlp:hotpath
func Simple(data []byte) uint16 {
	var sum uint64
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < n {
		sum += uint64(data[i]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Unrolled computes the Internet checksum in the 4.4BSD in_cksum style:
// a 64-byte-per-iteration unrolled main loop with progressively smaller
// clean-up loops. Fewer cycles per byte, much more code — the trade-off
// Figure 8 is about.
func Unrolled(data []byte) uint16 {
	var sum uint64
	n := len(data)
	i := 0
	for ; n-i >= 64; i += 64 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
		sum += uint64(data[i+2])<<8 | uint64(data[i+3])
		sum += uint64(data[i+4])<<8 | uint64(data[i+5])
		sum += uint64(data[i+6])<<8 | uint64(data[i+7])
		sum += uint64(data[i+8])<<8 | uint64(data[i+9])
		sum += uint64(data[i+10])<<8 | uint64(data[i+11])
		sum += uint64(data[i+12])<<8 | uint64(data[i+13])
		sum += uint64(data[i+14])<<8 | uint64(data[i+15])
		sum += uint64(data[i+16])<<8 | uint64(data[i+17])
		sum += uint64(data[i+18])<<8 | uint64(data[i+19])
		sum += uint64(data[i+20])<<8 | uint64(data[i+21])
		sum += uint64(data[i+22])<<8 | uint64(data[i+23])
		sum += uint64(data[i+24])<<8 | uint64(data[i+25])
		sum += uint64(data[i+26])<<8 | uint64(data[i+27])
		sum += uint64(data[i+28])<<8 | uint64(data[i+29])
		sum += uint64(data[i+30])<<8 | uint64(data[i+31])
		sum += uint64(data[i+32])<<8 | uint64(data[i+33])
		sum += uint64(data[i+34])<<8 | uint64(data[i+35])
		sum += uint64(data[i+36])<<8 | uint64(data[i+37])
		sum += uint64(data[i+38])<<8 | uint64(data[i+39])
		sum += uint64(data[i+40])<<8 | uint64(data[i+41])
		sum += uint64(data[i+42])<<8 | uint64(data[i+43])
		sum += uint64(data[i+44])<<8 | uint64(data[i+45])
		sum += uint64(data[i+46])<<8 | uint64(data[i+47])
		sum += uint64(data[i+48])<<8 | uint64(data[i+49])
		sum += uint64(data[i+50])<<8 | uint64(data[i+51])
		sum += uint64(data[i+52])<<8 | uint64(data[i+53])
		sum += uint64(data[i+54])<<8 | uint64(data[i+55])
		sum += uint64(data[i+56])<<8 | uint64(data[i+57])
		sum += uint64(data[i+58])<<8 | uint64(data[i+59])
		sum += uint64(data[i+60])<<8 | uint64(data[i+61])
		sum += uint64(data[i+62])<<8 | uint64(data[i+63])
	}
	for ; n-i >= 16; i += 16 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
		sum += uint64(data[i+2])<<8 | uint64(data[i+3])
		sum += uint64(data[i+4])<<8 | uint64(data[i+5])
		sum += uint64(data[i+6])<<8 | uint64(data[i+7])
		sum += uint64(data[i+8])<<8 | uint64(data[i+9])
		sum += uint64(data[i+10])<<8 | uint64(data[i+11])
		sum += uint64(data[i+12])<<8 | uint64(data[i+13])
		sum += uint64(data[i+14])<<8 | uint64(data[i+15])
	}
	for ; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < n {
		sum += uint64(data[i]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Chain checksums a sequence of slices as one logical buffer (the mbuf
// case the paper says complicates in_cksum so much).
func Chain(chunks ...[]byte) uint16 {
	var a Accumulator
	for _, c := range chunks {
		a.Add(c)
	}
	return a.Sum16()
}
