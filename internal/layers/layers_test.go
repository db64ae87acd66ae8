package layers

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	srcIP = IPAddr{10, 0, 0, 1}
	dstIP = IPAddr{10, 0, 0, 2}
)

func TestAddrStrings(t *testing.T) {
	if got := (MACAddr{0xde, 0xad, 0xbe, 0xef, 0, 1}).String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC string = %q", got)
	}
	if got := srcIP.String(); got != "10.0.0.1" {
		t.Errorf("IP string = %q", got)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := Ethernet{
		Dst:       MACAddr{1, 2, 3, 4, 5, 6},
		Src:       MACAddr{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4,
	}
	buf := make([]byte, EthernetLen)
	if n := h.Encode(buf); n != EthernetLen {
		t.Fatalf("encode length %d", n)
	}
	var g Ethernet
	n, err := g.Decode(buf)
	if err != nil || n != EthernetLen || g != h {
		t.Errorf("round trip: %+v err %v", g, err)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var h Ethernet
	if _, err := h.Decode(make([]byte, 13)); !errors.Is(err, ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS: 0x10, TotalLen: 552, ID: 0x1234, TTL: 64,
		Protocol: ProtoTCP, Src: srcIP, Dst: dstIP,
	}
	buf := make([]byte, IPv4MinLen)
	h.Encode(buf)
	var g IPv4
	n, err := g.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv4MinLen || g.TotalLen != 552 || g.Protocol != ProtoTCP || g.Src != srcIP || g.Dst != dstIP || g.TTL != 64 || g.ID != 0x1234 {
		t.Errorf("decoded %+v", g)
	}
	if g.IsFragment() {
		t.Error("non-fragment flagged as fragment")
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	h := IPv4{TotalLen: 100, TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}
	buf := make([]byte, IPv4MinLen)
	h.Encode(buf)
	buf[8] ^= 0xff // corrupt TTL after checksumming
	var g IPv4
	if _, err := g.Decode(buf); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("want ErrBadChecksum, got %v", err)
	}
}

func TestIPv4Malformed(t *testing.T) {
	h := IPv4{TotalLen: 100, TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}
	good := make([]byte, IPv4MinLen)
	h.Encode(good)

	cases := map[string]func([]byte){
		"version": func(b []byte) { b[0] = 6<<4 | 5 },
		"ihl":     func(b []byte) { b[0] = 4<<4 | 3 },
		"total<ihl": func(b []byte) {
			b[2], b[3] = 0, 4
		},
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), good...)
		corrupt(b)
		var g IPv4
		if _, err := g.Decode(b); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
	var g IPv4
	if _, err := g.Decode(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Error("short header not detected")
	}
}

func TestIPv4FragmentBits(t *testing.T) {
	h := IPv4{TotalLen: 100, TTL: 1, Protocol: ProtoUDP, Flags: 0x1, FragOff: 1480, Src: srcIP, Dst: dstIP}
	buf := make([]byte, IPv4MinLen)
	h.Encode(buf)
	var g IPv4
	if _, err := g.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if !g.MoreFragments() || g.FragOff != 1480 || !g.IsFragment() {
		t.Errorf("fragment fields: %+v", g)
	}
	h2 := IPv4{TotalLen: 100, TTL: 1, Protocol: ProtoUDP, Flags: 0x2, Src: srcIP, Dst: dstIP}
	h2.Encode(buf)
	var g2 IPv4
	if _, err := g2.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if g2.Flags != 0x2 || g2.IsFragment() {
		t.Errorf("DF fields: %+v", g2)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("hello small message")
	h := UDP{SrcPort: 5000, DstPort: 53}
	buf := make([]byte, UDPLen+len(payload))
	h.Encode(buf[:UDPLen], payload, srcIP, dstIP)
	copy(buf[UDPLen:], payload)
	var g UDP
	n, err := g.Decode(buf, srcIP, dstIP)
	if err != nil {
		t.Fatal(err)
	}
	if n != UDPLen || g.SrcPort != 5000 || g.DstPort != 53 || g.Length != len(buf) {
		t.Errorf("decoded %+v", g)
	}
}

func TestUDPChecksumCatchesPayloadCorruption(t *testing.T) {
	payload := []byte("datagram payload")
	h := UDP{SrcPort: 1, DstPort: 2}
	buf := make([]byte, UDPLen+len(payload))
	h.Encode(buf[:UDPLen], payload, srcIP, dstIP)
	copy(buf[UDPLen:], payload)
	buf[UDPLen+3] ^= 0x40
	var g UDP
	if _, err := g.Decode(buf, srcIP, dstIP); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("want ErrBadChecksum, got %v", err)
	}
}

func TestUDPChecksumCoversAddresses(t *testing.T) {
	// Delivering to the wrong host must fail the pseudo-header checksum.
	payload := []byte("x")
	h := UDP{SrcPort: 1, DstPort: 2}
	buf := make([]byte, UDPLen+len(payload))
	h.Encode(buf[:UDPLen], payload, srcIP, dstIP)
	copy(buf[UDPLen:], payload)
	var g UDP
	if _, err := g.Decode(buf, srcIP, IPAddr{9, 9, 9, 9}); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("want pseudo-header failure, got %v", err)
	}
}

func TestUDPLengthValidation(t *testing.T) {
	var g UDP
	if _, err := g.Decode(make([]byte, 4), srcIP, dstIP); !errors.Is(err, ErrTruncated) {
		t.Error("short UDP not detected")
	}
	b := make([]byte, UDPLen)
	be.PutUint16(b[4:6], 4) // length below header size
	if _, err := g.Decode(b, srcIP, dstIP); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length not detected: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("segment data")
	h := TCP{
		SrcPort: 80, DstPort: 31337,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPAck | TCPPsh, Window: 8760,
	}
	seg := make([]byte, TCPMinLen+len(payload))
	h.Encode(seg[:TCPMinLen], payload, srcIP, dstIP)
	copy(seg[TCPMinLen:], payload)
	var g TCP
	n, err := g.Decode(seg, srcIP, dstIP)
	if err != nil {
		t.Fatal(err)
	}
	if n != TCPMinLen || g.Seq != h.Seq || g.Ack != h.Ack || g.Flags != h.Flags || g.Window != 8760 {
		t.Errorf("decoded %+v", g)
	}
}

func TestTCPChecksumCoversEverything(t *testing.T) {
	h := TCP{SrcPort: 1, DstPort: 2, Seq: 9, Flags: TCPSyn}
	seg := make([]byte, TCPMinLen+4)
	h.Encode(seg[:TCPMinLen], seg[TCPMinLen:], srcIP, dstIP)
	for _, i := range []int{0, 5, 13, TCPMinLen + 2} {
		b := append([]byte(nil), seg...)
		b[i] ^= 0x01
		var g TCP
		if _, err := g.Decode(b, srcIP, dstIP); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestTCPMalformed(t *testing.T) {
	var g TCP
	if _, err := g.Decode(make([]byte, 10), srcIP, dstIP); !errors.Is(err, ErrTruncated) {
		t.Error("short TCP not detected")
	}
	seg := make([]byte, TCPMinLen)
	seg[12] = 3 << 4 // data offset 12 < 20
	if _, err := g.Decode(seg, srcIP, dstIP); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad data offset: %v", err)
	}
}

// Property: encode∘decode is the identity on the encodable field subset,
// for random headers and payloads.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, rng.Intn(512))
		rng.Read(payload)
		var sa, da IPAddr
		rng.Read(sa[:])
		rng.Read(da[:])

		th := TCP{
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Seq: rng.Uint32(), Ack: rng.Uint32(),
			Flags: byte(rng.Intn(64)), Window: uint16(rng.Uint32()),
		}
		seg := make([]byte, TCPMinLen+len(payload))
		th.Encode(seg[:TCPMinLen], payload, sa, da)
		copy(seg[TCPMinLen:], payload)
		var tg TCP
		if _, err := tg.Decode(seg, sa, da); err != nil {
			return false
		}
		if tg.SrcPort != th.SrcPort || tg.Seq != th.Seq || tg.Ack != th.Ack || tg.Flags != th.Flags {
			return false
		}

		uh := UDP{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32())}
		dg := make([]byte, UDPLen+len(payload))
		uh.Encode(dg[:UDPLen], payload, sa, da)
		copy(dg[UDPLen:], payload)
		var ug UDP
		if _, err := ug.Decode(dg, sa, da); err != nil {
			return false
		}
		return ug.SrcPort == uh.SrcPort && ug.DstPort == uh.DstPort
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: single-bit corruption anywhere in a TCP segment is detected
// by the checksum (16-bit one's complement catches all single-bit errors).
func TestSingleBitErrorsDetectedQuick(t *testing.T) {
	f := func(seed int64, bitSel uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+rng.Intn(100))
		rng.Read(payload)
		h := TCP{SrcPort: 1, DstPort: 2, Seq: rng.Uint32(), Flags: TCPAck}
		seg := make([]byte, TCPMinLen+len(payload))
		h.Encode(seg[:TCPMinLen], payload, srcIP, dstIP)
		copy(seg[TCPMinLen:], payload)
		bit := int(bitSel) % (len(seg) * 8)
		// Skip bits inside fields Decode doesn't checksum-protect
		// semantically but still covers (urgent pointer etc. are covered;
		// everything is). Flip and expect failure.
		seg[bit/8] ^= 1 << (bit % 8)
		var g TCP
		_, err := g.Decode(seg, srcIP, dstIP)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTCPDecode(b *testing.B) {
	payload := make([]byte, 512)
	h := TCP{SrcPort: 80, DstPort: 12345, Seq: 1, Ack: 2, Flags: TCPAck}
	seg := make([]byte, TCPMinLen+len(payload))
	h.Encode(seg[:TCPMinLen], payload, srcIP, dstIP)
	copy(seg[TCPMinLen:], payload)
	var g TCP
	b.SetBytes(int64(len(seg)))
	for i := 0; i < b.N; i++ {
		if _, err := g.Decode(seg, srcIP, dstIP); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: decoders never panic and never claim success beyond their
// input on arbitrary byte soup — the front line against a hostile wire.
func TestDecodersRobustAgainstGarbageQuick(t *testing.T) {
	f := func(data []byte, sa, da IPAddr) bool {
		var (
			eth Ethernet
			ip  IPv4
			udp UDP
			tcp TCP
		)
		if n, err := eth.Decode(data); err == nil && n > len(data) {
			return false
		}
		if n, err := ip.Decode(data); err == nil && (n > len(data) || n < IPv4MinLen) {
			return false
		}
		if n, err := udp.Decode(data, sa, da); err == nil && n != UDPLen {
			return false
		}
		if n, err := tcp.Decode(data, sa, da); err == nil && (n > len(data) || n < TCPMinLen) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: random garbage essentially never passes the checksummed
// decoders (a 16-bit checksum admits ~1/65536 garbage; over 500 samples
// seeing more than a few passes indicates a validation hole).
func TestGarbageRarelyValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	passes := 0
	for i := 0; i < 500; i++ {
		data := make([]byte, 20+rng.Intn(60))
		rng.Read(data)
		var ip IPv4
		if _, err := ip.Decode(data); err == nil {
			passes++
		}
	}
	if passes > 3 {
		t.Errorf("%d/500 random buffers passed IPv4 validation", passes)
	}
}
