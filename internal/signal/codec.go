// Package signal implements a small connection setup/teardown signalling
// protocol in the spirit of Q.93B (the ATM connection-control protocol
// whose performance motivates the paper's §1): SETUP / CALL PROCEEDING /
// CONNECT / CONNECT ACK / RELEASE / RELEASE COMPLETE messages with a
// Q.931-style call reference and information elements, call state
// machines for both ends, and an agent that runs over the netstack.
//
// The paper's stated goal is "10000 pairs of setup/teardown requests per
// second with processing latency of 100 microseconds for setup requests,
// using just a commodity workstation processor". SimConfig exposes a
// machine-model configuration of this stack so ldlpreport's signalling
// artifact can evaluate that goal under the conventional and LDLP
// disciplines.
package signal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType enumerates signalling message types (values shadow Q.931).
type MsgType byte

const (
	// MsgSetup initiates a call.
	MsgSetup MsgType = 0x05
	// MsgCallProceeding acknowledges a SETUP is being worked on.
	MsgCallProceeding MsgType = 0x02
	// MsgConnect accepts the call.
	MsgConnect MsgType = 0x07
	// MsgConnectAck completes the three-way setup exchange.
	MsgConnectAck MsgType = 0x0f
	// MsgRelease starts teardown.
	MsgRelease MsgType = 0x4d
	// MsgReleaseComplete finishes teardown.
	MsgReleaseComplete MsgType = 0x5a
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgSetup:
		return "SETUP"
	case MsgCallProceeding:
		return "CALL PROCEEDING"
	case MsgConnect:
		return "CONNECT"
	case MsgConnectAck:
		return "CONNECT ACK"
	case MsgRelease:
		return "RELEASE"
	case MsgReleaseComplete:
		return "RELEASE COMPLETE"
	default:
		return fmt.Sprintf("MsgType(%#02x)", byte(t))
	}
}

// Cause values for RELEASE.
const (
	CauseNormal        byte = 16
	CauseRejected      byte = 21
	CauseNoRouteToDest byte = 3
)

// Information element identifiers.
const (
	ieCalledParty  byte = 0x70
	ieCallingParty byte = 0x6c
	ieTrafficDesc  byte = 0x59
	ieCause        byte = 0x08
)

// protoDiscriminator identifies our protocol on the wire (Q.93B uses
// 0x09 for Q.931-family call control).
const protoDiscriminator = 0x09

// Message is a decoded signalling message. Party numbers are opaque
// 32-bit addresses (an NSAP stand-in); PeakCells is the traffic
// descriptor's peak cell rate.
type Message struct {
	CallRef   uint32
	Type      MsgType
	Called    uint32
	Calling   uint32
	PeakCells uint32
	Cause     byte
}

// Decode errors.
var (
	ErrShort     = errors.New("signal: message too short")
	ErrBadProto  = errors.New("signal: wrong protocol discriminator")
	ErrBadIE     = errors.New("signal: malformed information element")
	ErrUnknownIE = errors.New("signal: unknown mandatory information element")
)

// Encode renders the message: discriminator, call reference, type, then
// IEs as (id, len, value) triples — around a hundred bytes, the size
// class the paper says signalling messages live in.
func (m *Message) Encode() []byte {
	// Worst case: 6 fixed + 3 IEs of 6 + cause of 3.
	b := make([]byte, 0, 32)
	b = append(b, protoDiscriminator)
	var ref [4]byte
	binary.BigEndian.PutUint32(ref[:], m.CallRef)
	b = append(b, ref[:]...)
	b = append(b, byte(m.Type))

	put32 := func(id byte, v uint32) {
		var val [4]byte
		binary.BigEndian.PutUint32(val[:], v)
		b = append(b, id, 4)
		b = append(b, val[:]...)
	}
	switch m.Type {
	case MsgSetup:
		put32(ieCalledParty, m.Called)
		put32(ieCallingParty, m.Calling)
		put32(ieTrafficDesc, m.PeakCells)
	case MsgRelease, MsgReleaseComplete:
		b = append(b, ieCause, 1, m.Cause)
	}
	return b
}

// Decode parses a wire message.
func Decode(b []byte) (Message, error) {
	var m Message
	if len(b) < 6 {
		return m, fmt.Errorf("%w (%d bytes)", ErrShort, len(b))
	}
	if b[0] != protoDiscriminator {
		return m, fmt.Errorf("%w (%#02x)", ErrBadProto, b[0])
	}
	m.CallRef = binary.BigEndian.Uint32(b[1:5])
	m.Type = MsgType(b[5])
	rest := b[6:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return m, fmt.Errorf("%w: dangling IE header", ErrBadIE)
		}
		id, n := rest[0], int(rest[1])
		rest = rest[2:]
		if len(rest) < n {
			return m, fmt.Errorf("%w: IE %#02x wants %d bytes, %d left", ErrBadIE, id, n, len(rest))
		}
		val := rest[:n]
		rest = rest[n:]
		switch id {
		case ieCalledParty, ieCallingParty, ieTrafficDesc:
			if n != 4 {
				return m, fmt.Errorf("%w: IE %#02x length %d", ErrBadIE, id, n)
			}
			v := binary.BigEndian.Uint32(val)
			switch id {
			case ieCalledParty:
				m.Called = v
			case ieCallingParty:
				m.Calling = v
			case ieTrafficDesc:
				m.PeakCells = v
			}
		case ieCause:
			if n != 1 {
				return m, fmt.Errorf("%w: cause length %d", ErrBadIE, n)
			}
			m.Cause = val[0]
		default:
			// Unknown IEs are skipped (forward compatibility), as in
			// Q.931 comprehension rules for non-mandatory elements.
		}
	}
	if m.Type == MsgSetup && m.Called == 0 {
		return m, fmt.Errorf("%w: SETUP without called party", ErrUnknownIE)
	}
	return m, nil
}
