// Package gossip is a TLC-style threshold logical-clock protocol run
// over the fleet simulator's real UDP stack: every node broadcasts a
// proposal for its current time step, peers acknowledge it, and once a
// threshold of acknowledgments arrives the proposal is witnessed and
// announced. A node advances its logical clock when it knows a
// threshold of its peers' current-step messages are witnessed — learned
// either from direct witness announcements or from the vector-clock
// knowledge piggybacked on every message. Heartbeat retransmission
// keeps the protocol live across lossy links; every handler is
// idempotent, so duplicates and stale retransmits are harmless.
//
// Because each message rides netstack's UDP/IP/Ethernet encode and the
// full LDLP receive path, the fleet-level comparison between the
// conventional and LDLP disciplines measures the paper's batching
// discipline under the all-to-all small-message chatter it targets.
package gossip

import (
	"encoding/binary"
	"fmt"
)

// Magic is the first wire byte of every gossip datagram.
const Magic = 0xA7

// MsgType discriminates the three TLC message kinds.
type MsgType uint8

const (
	// Prop proposes the sender's message for its current step.
	Prop MsgType = 1 + iota
	// Ack acknowledges a peer's proposal for the echoed step.
	Ack
	// Wit announces the sender's step message reached its witness
	// threshold.
	Wit
)

func (t MsgType) String() string {
	switch t {
	case Prop:
		return "prop"
	case Ack:
		return "ack"
	case Wit:
		return "wit"
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// VecEntry is one piggybacked vector-clock element: the sender knows
// node ID's proposal for step WitStep was witnessed.
type VecEntry struct {
	ID, WitStep uint32
}

// Msg is a decoded gossip datagram.
//
// Wire layout (big-endian): magic(1) type(1) sender(4) step(4) nvec(1)
// then nvec x (id(4) witstep(4)). With the default vector cap of 16 a
// message is at most 155 bytes — squarely the small-message regime.
type Msg struct {
	Type   MsgType
	Sender uint32
	Step   uint32
	Vec    []VecEntry
}

const headerLen = 1 + 1 + 4 + 4 + 1

// MaxVec bounds the piggybacked vector so a message always fits one
// frame (no fragmentation on the hot path).
const MaxVec = 255

// AppendTo serializes m onto b and returns the extended slice.
func (m *Msg) AppendTo(b []byte) []byte {
	if len(m.Vec) > MaxVec {
		panic(fmt.Sprintf("gossip: vector of %d entries overflows the wire format", len(m.Vec)))
	}
	b = append(b, Magic, byte(m.Type))
	b = binary.BigEndian.AppendUint32(b, m.Sender)
	b = binary.BigEndian.AppendUint32(b, m.Step)
	b = append(b, byte(len(m.Vec)))
	for _, e := range m.Vec {
		b = binary.BigEndian.AppendUint32(b, e.ID)
		b = binary.BigEndian.AppendUint32(b, e.WitStep)
	}
	return b
}

// Decode parses one datagram. Trailing bytes are an error: a gossip
// datagram is exactly one message.
func Decode(b []byte) (Msg, error) { return decodeInto(b, nil) }

// decodeInto is Decode with the vector parsed into vec's storage, which
// the returned Msg.Vec then aliases; a vec too small for the message
// is replaced by a fresh one.
func decodeInto(b []byte, vec []VecEntry) (Msg, error) {
	if len(b) < headerLen {
		return Msg{}, fmt.Errorf("gossip: short datagram (%d bytes)", len(b))
	}
	if b[0] != Magic {
		return Msg{}, fmt.Errorf("gossip: bad magic 0x%02x", b[0])
	}
	t := MsgType(b[1])
	if t < Prop || t > Wit {
		return Msg{}, fmt.Errorf("gossip: unknown message type %d", b[1])
	}
	m := Msg{
		Type:   t,
		Sender: binary.BigEndian.Uint32(b[2:]),
		Step:   binary.BigEndian.Uint32(b[6:]),
	}
	nvec := int(b[10])
	if want := headerLen + 8*nvec; len(b) != want {
		return Msg{}, fmt.Errorf("gossip: datagram is %d bytes, want %d for %d vector entries", len(b), want, nvec)
	}
	if nvec > 0 {
		if cap(vec) < nvec {
			vec = make([]VecEntry, nvec)
		}
		m.Vec = vec[:nvec]
		for i := range m.Vec {
			off := headerLen + 8*i
			m.Vec[i] = VecEntry{
				ID:      binary.BigEndian.Uint32(b[off:]),
				WitStep: binary.BigEndian.Uint32(b[off+4:]),
			}
		}
	}
	return m, nil
}
