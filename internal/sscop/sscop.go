// Package sscop implements a compact SSCOP-style reliable link protocol
// (ITU Q.2110, the Service Specific Connection Oriented Protocol of the
// ATM signalling stack): Q.93B — the protocol whose performance motivates
// the paper's §1 — does not run over raw datagrams but over SAAL/SSCOP,
// which provides assured, in-sequence delivery with *selective*
// retransmission driven by POLL/STAT/USTAT status exchange rather than
// go-back-N.
//
// The subset implemented here: BGN/BGAK establishment, END/ENDAK release,
// SD (sequenced data) with a transmit window, receiver-side out-of-order
// buffering, USTAT on gap detection, periodic POLL answered by STAT
// carrying the receiver's complete gap list, and selective retransmission
// from the status reports. It runs over the netstack's UDP (standing in
// for an AAL5 VC) and is single-threaded and explicitly pumped like
// everything else in this repository.
package sscop

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ldlp/internal/layers"
	"ldlp/internal/netstack"
)

// PDU types (values after Q.2110's spirit, not its bit layout).
const (
	pduBGN   = 0x01 // begin (establish)
	pduBGAK  = 0x02 // begin ack
	pduEND   = 0x03 // end (release)
	pduENDAK = 0x04 // end ack
	pduSD    = 0x05 // sequenced data
	pduPOLL  = 0x06 // transmitter status poll
	pduSTAT  = 0x07 // solicited status (answers POLL)
	pduUSTAT = 0x08 // unsolicited status (gap detected)
)

// Tunables.
const (
	// Window is the transmit window in SDs.
	Window = 64
	// PollInterval is how often an unacknowledged transmitter polls.
	PollInterval = 0.25
	// pollEvery triggers a POLL after this many SDs even without a timer.
	pollEvery = 16
	// maxGapsPerStat bounds the gap list in one STAT.
	maxGapsPerStat = 32
)

// State is the link state.
type State int

const (
	// Idle: no connection.
	Idle State = iota
	// Outgoing: BGN sent, awaiting BGAK.
	Outgoing
	// Established: assured data transfer.
	Established
	// Releasing: END sent, awaiting ENDAK.
	Releasing
)

var stateNames = map[State]string{
	Idle: "idle", Outgoing: "outgoing", Established: "established", Releasing: "releasing",
}

// String names the state.
func (s State) String() string { return stateNames[s] }

// Stats counts protocol activity.
type Stats struct {
	SDsSent         int64
	SDsReceived     int64
	Retransmissions int64
	PollsSent       int64
	StatsSent       int64
	UstatsSent      int64
	Delivered       int64
	OutOfOrder      int64
	Duplicates      int64
	BadPDUs         int64
	// CtlRetransmits counts BGN/END control PDUs re-sent by the timer
	// because the handshake answer never came (lost on the link).
	CtlRetransmits int64
}

// ErrNotEstablished is returned by Send before the link is up.
var ErrNotEstablished = errors.New("sscop: link not established")

type sdRecord struct {
	payload []byte
	sentAt  float64
}

// Link is one SSCOP association bound to a local UDP port.
type Link struct {
	host *netstack.Host
	sock *netstack.UDPSock

	peer     layers.IPAddr
	peerPort uint16
	state    State

	// Transmitter.
	vs       uint32 // next new SD sequence
	ackBase  uint32 // lowest unacknowledged
	unacked  map[uint32]*sdRecord
	sdsSince int // SDs since last POLL
	lastPoll float64
	lastCtl  float64 // last BGN/END (re)transmission time
	ps       uint32  // poll sequence

	// Receiver.
	vr       uint32 // next expected in-order SD
	highSeen uint32 // highest received + 1
	reorder  map[uint32][]byte
	delivery [][]byte

	Stats Stats
}

// New binds an SSCOP link endpoint to the host's port.
func New(h *netstack.Host, port uint16) (*Link, error) {
	sock, err := h.UDPSocket(port)
	if err != nil {
		return nil, err
	}
	return &Link{
		host: h, sock: sock,
		unacked: make(map[uint32]*sdRecord),
		reorder: make(map[uint32][]byte),
	}, nil
}

// State reports the link state.
func (l *Link) State() State { return l.state }

// Established reports assured-mode readiness.
func (l *Link) Established() bool { return l.state == Established }

// Connect starts establishment toward the peer.
func (l *Link) Connect(dst layers.IPAddr, port uint16) {
	l.peer, l.peerPort = dst, port
	l.state = Outgoing
	l.lastCtl = l.host.Now()
	l.emit([]byte{pduBGN})
}

// Release starts an orderly release.
func (l *Link) Release() {
	if l.state != Established && l.state != Outgoing {
		return
	}
	l.state = Releasing
	l.lastCtl = l.host.Now()
	l.emit([]byte{pduEND})
}

// Send queues one assured message. The message is sequenced immediately;
// the window only gates how much sits unacknowledged (callers see
// backpressure as an error).
func (l *Link) Send(payload []byte) error {
	if l.state != Established {
		return ErrNotEstablished
	}
	if uint32(len(l.unacked)) >= Window {
		return fmt.Errorf("sscop: window full (%d unacked)", len(l.unacked))
	}
	seq := l.vs
	l.vs++
	rec := &sdRecord{payload: append([]byte(nil), payload...), sentAt: l.host.Now()}
	l.unacked[seq] = rec
	l.sendSD(seq, rec)
	l.sdsSince++
	if l.sdsSince >= pollEvery {
		l.sendPoll()
	}
	return nil
}

// Recv pops the next in-order delivered message.
func (l *Link) Recv() ([]byte, bool) {
	if len(l.delivery) == 0 {
		return nil, false
	}
	m := l.delivery[0]
	l.delivery = l.delivery[1:]
	return m, true
}

// Pending reports queued deliveries.
func (l *Link) Pending() int { return len(l.delivery) }

// Tick runs the protocol timers: POLL while data is outstanding, and
// BGN/END retransmission while a handshake answer is owed. Without the
// latter, one lost BGN (or END) wedges the link in Outgoing (or
// Releasing) forever — the recovery-path bug the chaos sweep surfaced.
func (l *Link) Tick() {
	now := l.host.Now()
	switch l.state {
	case Outgoing:
		if now-l.lastCtl >= PollInterval {
			l.lastCtl = now
			l.Stats.CtlRetransmits++
			l.emit([]byte{pduBGN})
		}
	case Releasing:
		if now-l.lastCtl >= PollInterval {
			l.lastCtl = now
			l.Stats.CtlRetransmits++
			l.emit([]byte{pduEND})
		}
	case Established:
		if len(l.unacked) > 0 && now-l.lastPoll >= PollInterval {
			l.sendPoll()
		}
	}
}

// Poll drains the UDP socket and runs the receive state machine.
func (l *Link) Poll() {
	for {
		dg, ok := l.sock.Recv()
		if !ok {
			return
		}
		l.handle(dg)
	}
}

func (l *Link) emit(b []byte) {
	l.sock.SendTo(l.peer, l.peerPort, b)
}

func (l *Link) sendSD(seq uint32, rec *sdRecord) {
	b := make([]byte, 5+len(rec.payload))
	b[0] = pduSD
	binary.BigEndian.PutUint32(b[1:5], seq)
	copy(b[5:], rec.payload)
	l.Stats.SDsSent++
	l.emit(b)
}

func (l *Link) sendPoll() {
	l.ps++
	l.sdsSince = 0
	l.lastPoll = l.host.Now()
	b := make([]byte, 9)
	b[0] = pduPOLL
	binary.BigEndian.PutUint32(b[1:5], l.ps)
	binary.BigEndian.PutUint32(b[5:9], l.vs)
	l.Stats.PollsSent++
	l.emit(b)
}

// gapList returns the receiver's missing ranges in [vr, highSeen).
func (l *Link) gapList() [][2]uint32 {
	var gaps [][2]uint32
	var cur *[2]uint32
	for s := l.vr; s != l.highSeen; s++ {
		if _, have := l.reorder[s]; have {
			cur = nil
			continue
		}
		if cur == nil {
			gaps = append(gaps, [2]uint32{s, s + 1})
			cur = &gaps[len(gaps)-1]
			if len(gaps) >= maxGapsPerStat {
				break
			}
		} else {
			cur[1] = s + 1
		}
	}
	return gaps
}

func (l *Link) sendStat(ps uint32) {
	gaps := l.gapList()
	b := make([]byte, 9+1+8*len(gaps))
	b[0] = pduSTAT
	binary.BigEndian.PutUint32(b[1:5], ps)
	binary.BigEndian.PutUint32(b[5:9], l.vr)
	b[9] = byte(len(gaps))
	for i, g := range gaps {
		binary.BigEndian.PutUint32(b[10+8*i:], g[0])
		binary.BigEndian.PutUint32(b[14+8*i:], g[1])
	}
	l.Stats.StatsSent++
	l.emit(b)
}

func (l *Link) sendUstat(lo, hi uint32) {
	b := make([]byte, 9)
	b[0] = pduUSTAT
	binary.BigEndian.PutUint32(b[1:5], lo)
	binary.BigEndian.PutUint32(b[5:9], hi)
	l.Stats.UstatsSent++
	l.emit(b)
}

func (l *Link) handle(dg netstack.Datagram) {
	b := dg.Data
	if len(b) < 1 {
		l.Stats.BadPDUs++
		return
	}
	switch b[0] {
	case pduBGN:
		// Passive establishment (or BGN retransmission).
		l.peer, l.peerPort = dg.Src, dg.SrcPort
		if l.state == Idle || l.state == Outgoing {
			l.resetTransfer()
			l.state = Established
		}
		l.emit([]byte{pduBGAK})
	case pduBGAK:
		if l.state == Outgoing {
			l.resetTransfer()
			l.state = Established
		}
	case pduEND:
		l.state = Idle
		l.emit([]byte{pduENDAK})
	case pduENDAK:
		if l.state == Releasing {
			l.state = Idle
		}
	case pduSD:
		if len(b) < 5 {
			l.Stats.BadPDUs++
			return
		}
		l.handleSD(binary.BigEndian.Uint32(b[1:5]), b[5:])
	case pduPOLL:
		if len(b) < 9 {
			l.Stats.BadPDUs++
			return
		}
		ps := binary.BigEndian.Uint32(b[1:5])
		ns := binary.BigEndian.Uint32(b[5:9])
		// The POLL's N(S) tells us how far the transmitter has sequenced;
		// anything missing below it is a gap even if no later SD arrived.
		// A peer's window ends at our vr + Window, so an N(S) past that
		// is forged or corrupt and says nothing: it is counted and
		// ignored (believing it would make gapList walk the distance),
		// and the POLL is still answered.
		if after(ns, l.vr+Window) {
			l.Stats.BadPDUs++
		} else if after(ns, l.highSeen) {
			l.highSeen = ns
		}
		l.sendStat(ps)
	case pduSTAT:
		if len(b) < 10 {
			l.Stats.BadPDUs++
			return
		}
		nr := binary.BigEndian.Uint32(b[5:9])
		ngaps := int(b[9])
		if len(b) < 10+8*ngaps {
			l.Stats.BadPDUs++
			return
		}
		if after(nr, l.vs) {
			// Acknowledges data never sent. Honouring it would discard
			// unacked SDs the peer does not have, so drop the whole PDU.
			l.Stats.BadPDUs++
			return
		}
		l.ackThrough(nr)
		for i := 0; i < ngaps; i++ {
			lo := binary.BigEndian.Uint32(b[10+8*i:])
			hi := binary.BigEndian.Uint32(b[14+8*i:])
			l.retransmitRange(lo, hi)
		}
	case pduUSTAT:
		if len(b) < 9 {
			l.Stats.BadPDUs++
			return
		}
		lo := binary.BigEndian.Uint32(b[1:5])
		hi := binary.BigEndian.Uint32(b[5:9])
		l.retransmitRange(lo, hi)
	default:
		l.Stats.BadPDUs++
	}
}

func (l *Link) resetTransfer() {
	l.vs, l.ackBase, l.vr, l.highSeen, l.ps, l.sdsSince = 0, 0, 0, 0, 0, 0
	l.unacked = make(map[uint32]*sdRecord)
	l.reorder = make(map[uint32][]byte)
	l.delivery = nil
}

func (l *Link) handleSD(seq uint32, payload []byte) {
	l.Stats.SDsReceived++
	if before(seq, l.vr) {
		l.Stats.Duplicates++
		return
	}
	if !before(seq, l.vr+Window) {
		// Beyond the receive window: the transmitter's own window never
		// reaches this far, and buffering it would open a gap of that
		// size for every later STAT to enumerate.
		l.Stats.BadPDUs++
		return
	}
	if _, dup := l.reorder[seq]; dup {
		l.Stats.Duplicates++
		return
	}
	if after(seq, l.vr) && (l.highSeen == l.vr || after(seq, l.highSeen)) {
		// A fresh gap just opened: request the missing range immediately
		// (SSCOP's USTAT), without waiting for the next POLL.
		lo := l.vr
		if l.highSeen != l.vr && after(seq, l.highSeen) {
			lo = l.highSeen
		}
		if after(seq, lo) {
			l.Stats.OutOfOrder++
			l.sendUstat(lo, seq)
		}
	}
	// payload is the socket's until the next pump; the link keeps its own.
	l.reorder[seq] = append([]byte(nil), payload...)
	if after(seq+1, l.highSeen) {
		l.highSeen = seq + 1
	}
	// Deliver any in-order run.
	for {
		p, ok := l.reorder[l.vr]
		if !ok {
			break
		}
		delete(l.reorder, l.vr)
		l.delivery = append(l.delivery, p)
		l.Stats.Delivered++
		l.vr++
	}
}

// ackThrough releases every SD below nr. The caller has checked that
// nr is not after vs, so the walk is at most the unacked window.
func (l *Link) ackThrough(nr uint32) {
	for s := l.ackBase; before(s, nr); s++ {
		delete(l.unacked, s)
	}
	if after(nr, l.ackBase) {
		l.ackBase = nr
	}
}

// retransmitRange re-sends the unacked SDs in [lo, hi). The range is the
// peer's word, so it is cut down to the live transmit window
// [ackBase, vs) before it bounds a loop. That is done on plain integer
// offsets from ackBase: order mod 2³² is not transitive, so holding lo
// and hi to the window one at a time can still leave 2³¹ sequence
// numbers between them. A range reaching below ackBase is merely stale;
// one reaching past vs names data never sent and is counted as a bad
// PDU.
func (l *Link) retransmitRange(lo, hi uint32) {
	sent := int32(l.vs - l.ackBase)
	from, to := int32(lo-l.ackBase), int32(hi-l.ackBase)
	if from > sent || to > sent {
		l.Stats.BadPDUs++
	}
	from, to = max(from, 0), min(to, sent)
	for off := from; off < to; off++ {
		s := l.ackBase + uint32(off)
		if rec, ok := l.unacked[s]; ok {
			l.Stats.Retransmissions++
			l.sendSD(s, rec)
		}
	}
}

// before / after compare sequence numbers mod 2^32.
func before(a, b uint32) bool { return int32(a-b) < 0 }
func after(a, b uint32) bool  { return int32(a-b) > 0 }
