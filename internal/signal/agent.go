package signal

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/netstack"
	"ldlp/internal/sim"
)

// SignalPort is the UDP port signalling agents rendezvous on.
const SignalPort = 2905

// CallState is one call's state, named after Q.931's states.
type CallState int

const (
	// StateNull is the idle state.
	StateNull CallState = iota
	// StateCallInitiated: SETUP sent, nothing back yet (caller side).
	StateCallInitiated
	// StateOutgoingProceeding: CALL PROCEEDING received (caller side).
	StateOutgoingProceeding
	// StateCallPresent: SETUP received, not yet answered (callee side).
	StateCallPresent
	// StateActive: the call is connected.
	StateActive
	// StateReleaseRequest: RELEASE sent, awaiting RELEASE COMPLETE.
	StateReleaseRequest
)

var callStateNames = map[CallState]string{
	StateNull: "null", StateCallInitiated: "call-initiated",
	StateOutgoingProceeding: "outgoing-proceeding",
	StateCallPresent:        "call-present", StateActive: "active",
	StateReleaseRequest: "release-request",
}

// String names the state.
func (s CallState) String() string { return callStateNames[s] }

// Call is one signalling association.
type Call struct {
	agent    *Agent
	Ref      uint32
	Peer     layers.IPAddr
	PeerPort uint16
	Called   uint32
	Calling  uint32
	Peak     uint32
	state    CallState
	outgoing bool

	// peerLeg ties a transit switch's incoming and outgoing legs.
	peerLeg *Call
	// issued orders the agent's calls by when each was added, so Tick
	// retransmits in that order.
	issued uint64

	// Timer state: guard deadline and transmission attempts for the
	// message currently awaiting a response (T303/T308).
	deadline float64
	attempts int
}

// State returns the call state.
func (c *Call) State() CallState { return c.state }

// Stats counts agent activity.
type Stats struct {
	SetupsSent         int64
	SetupsReceived     int64
	CallsActive        int64
	CallsCompleted     int64 // reached Active at some point, then released
	Rejected           int64
	Released           int64
	BadMessages        int64
	MsgsIn             int64
	MsgsOut            int64
	SetupRetransmits   int64
	ReleaseRetransmits int64
	TimedOut           int64
	TransitSetups      int64
}

// callRefFlag is Q.931's call reference flag, carried in the top bit of
// the wire call reference: set on messages sent *by* the side that
// allocated the reference. It is what lets a transit switch keep an
// incoming leg (ref allocated by the upstream node) and an outgoing leg
// (ref allocated locally) with the same numeric reference apart.
const callRefFlag = uint32(1) << 31

// callKey identifies a call leg: who allocated the reference (ours) and,
// for references allocated by a peer, which peer.
type callKey struct {
	remote layers.IPAddr
	ref    uint32
	ours   bool
}

// Agent is a signalling endpoint (user or network side — both state
// machines are implemented; a callee auto-answers unless Admission
// rejects).
type Agent struct {
	host    *netstack.Host
	sock    *netstack.UDPSock
	Address uint32 // this agent's party number
	calls   map[callKey]*Call
	nextRef uint32
	issued  uint64 // calls ever added
	Stats   Stats
	// Admission, if set, decides whether to accept a SETUP; rejection
	// sends RELEASE COMPLETE with CauseRejected. nil accepts everything.
	Admission func(m *Message) bool
	// T303/T308 override the SETUP and RELEASE guard timers (seconds);
	// zero selects the Q.931-style defaults.
	T303, T308 float64
	// Route, when set, makes the agent a transit switch: a SETUP whose
	// called party is not this agent is forwarded to the next hop Route
	// returns, with the two call legs tied together (CONNECT propagates
	// back, RELEASE propagates both ways). §1's motivating scenario is a
	// connection crossing 10–20 such switches.
	Route func(called uint32) (layers.IPAddr, bool)
}

// NewAgent binds a signalling agent to the host's SignalPort.
func NewAgent(h *netstack.Host, address uint32) (*Agent, error) {
	sock, err := h.UDPSocket(SignalPort)
	if err != nil {
		return nil, err
	}
	return &Agent{host: h, sock: sock, Address: address, calls: make(map[callKey]*Call)}, nil
}

// ActiveCalls returns the number of calls in StateActive.
func (a *Agent) ActiveCalls() int {
	n := 0
	//lint:ignore determinism a count: every call is visited once whatever the order
	for _, c := range a.calls {
		if c.state == StateActive {
			n++
		}
	}
	return n
}

// CallFor returns the locally-originated call with the given reference,
// if any.
func (a *Agent) CallFor(ref uint32) *Call {
	//lint:ignore determinism our references are unique, so at most one call matches
	for k, c := range a.calls {
		if k.ours && k.ref == ref {
			return c
		}
	}
	return nil
}

// key returns a call's map key.
func (c *Call) key() callKey {
	return callKey{remote: c.Peer, ref: c.Ref, ours: c.outgoing}
}

// track adds c to the agent's calls, stamped with its issue order.
func (a *Agent) track(c *Call) {
	a.issued++
	c.issued = a.issued
	a.calls[c.key()] = c
}

// Dial starts a call setup toward the agent at dst with the given called-
// party number and peak rate.
func (a *Agent) Dial(dst layers.IPAddr, called uint32, peak uint32) *Call {
	a.nextRef++
	c := &Call{
		agent: a, Ref: a.nextRef, Peer: dst, PeerPort: SignalPort,
		Called: called, Calling: a.Address, Peak: peak,
		state: StateCallInitiated, outgoing: true,
	}
	a.track(c)
	a.send(c, Message{CallRef: c.Ref, Type: MsgSetup, Called: called, Calling: a.Address, PeakCells: peak})
	a.Stats.SetupsSent++
	t303, _ := a.timers()
	c.armTimer(t303)
	return c
}

// Hangup releases an active (or pending) call.
func (c *Call) Hangup() {
	if c.state == StateNull || c.state == StateReleaseRequest {
		return
	}
	c.state = StateReleaseRequest
	c.agent.send(c, Message{CallRef: c.Ref, Type: MsgRelease, Cause: CauseNormal})
	_, t308 := c.agent.timers()
	c.attempts = 0
	c.armTimer(t308)
}

func (a *Agent) send(c *Call, m Message) {
	a.Stats.MsgsOut++
	if c.outgoing {
		// We allocated this reference: set the call reference flag.
		m.CallRef |= callRefFlag
	}
	a.sock.SendTo(c.Peer, c.PeerPort, m.Encode())
}

// Poll drains the agent's socket and runs the state machines. Call it
// after pumping the network.
func (a *Agent) Poll() {
	for {
		dg, ok := a.sock.Recv()
		if !ok {
			return
		}
		a.Stats.MsgsIn++
		m, err := Decode(dg.Data) // a Message is all values: nothing aliases dg.Data
		if err != nil {
			a.Stats.BadMessages++
			continue
		}
		a.handle(dg.Src, dg.SrcPort, m)
	}
}

// handle advances the state machine for one message.
func (a *Agent) handle(src layers.IPAddr, srcPort uint16, m Message) {
	// The call reference flag tells us whose numbering space the
	// reference lives in: set = the sender allocated it (their call,
	// keyed by peer); clear = a reply about a call we allocated.
	theirs := m.CallRef&callRefFlag != 0
	m.CallRef &^= callRefFlag
	c := a.calls[callKey{remote: src, ref: m.CallRef, ours: !theirs}]
	switch m.Type {
	case MsgSetup:
		a.Stats.SetupsReceived++
		if c != nil {
			// Retransmitted SETUP (the caller's T303 fired because our
			// response was lost): repeat the response, keep one call.
			if c.state == StateCallPresent && c.peerLeg == nil {
				a.send(c, Message{CallRef: c.Ref, Type: MsgCallProceeding})
				a.send(c, Message{CallRef: c.Ref, Type: MsgConnect})
			}
			return
		}
		c = &Call{
			agent: a, Ref: m.CallRef, Peer: src, PeerPort: srcPort,
			Called: m.Called, Calling: m.Calling, Peak: m.PeakCells,
			state: StateCallPresent,
		}
		if a.Admission != nil && !a.Admission(&m) {
			a.Stats.Rejected++
			a.Stats.MsgsOut++
			reply := Message{CallRef: m.CallRef, Type: MsgReleaseComplete, Cause: CauseRejected}
			a.sock.SendTo(src, srcPort, reply.Encode())
			return
		}
		a.track(c)
		a.send(c, Message{CallRef: c.Ref, Type: MsgCallProceeding})
		if m.Called != a.Address && a.Route != nil {
			// Transit: extend the call toward the called party and hold
			// CONNECT until the far end answers.
			next, ok := a.Route(m.Called)
			if !ok {
				a.Stats.Rejected++
				a.Stats.MsgsOut++
				reply := Message{CallRef: m.CallRef, Type: MsgReleaseComplete, Cause: CauseNoRouteToDest}
				a.sock.SendTo(src, srcPort, reply.Encode())
				delete(a.calls, c.key())
				return
			}
			a.Stats.TransitSetups++
			out := a.Dial(next, m.Called, m.PeakCells)
			out.Calling = m.Calling
			out.peerLeg = c
			c.peerLeg = out
			return
		}
		a.send(c, Message{CallRef: c.Ref, Type: MsgConnect})
	case MsgCallProceeding:
		if c != nil && c.state == StateCallInitiated {
			c.state = StateOutgoingProceeding
		}
	case MsgConnect:
		if c != nil && (c.state == StateOutgoingProceeding || c.state == StateCallInitiated) {
			c.state = StateActive
			a.Stats.CallsActive++
			a.send(c, Message{CallRef: c.Ref, Type: MsgConnectAck})
			// Transit: the outgoing leg connected — answer the incoming leg.
			if in := c.peerLeg; in != nil && in.state == StateCallPresent {
				a.send(in, Message{CallRef: in.Ref, Type: MsgConnect})
			}
		}
	case MsgConnectAck:
		if c != nil && c.state == StateCallPresent {
			c.state = StateActive
			a.Stats.CallsActive++
		}
	case MsgRelease:
		if c != nil {
			a.Stats.MsgsOut++
			reply := Message{CallRef: c.Ref, Type: MsgReleaseComplete, Cause: CauseNormal}
			a.sock.SendTo(c.Peer, c.PeerPort, reply.Encode())
			peer := c.peerLeg
			a.finish(c)
			// Transit: releasing one leg releases the other.
			if peer != nil && peer.state != StateNull {
				peer.peerLeg = nil
				peer.Hangup()
			}
		}
	case MsgReleaseComplete:
		if c != nil {
			if c.state == StateCallInitiated || c.state == StateOutgoingProceeding {
				a.Stats.Rejected++
				delete(a.calls, c.key())
				c.state = StateNull
				// A rejected transit leg rejects the incoming leg too.
				if in := c.peerLeg; in != nil && in.state == StateCallPresent {
					a.Stats.MsgsOut++
					reply := Message{CallRef: in.Ref, Type: MsgReleaseComplete, Cause: m.Cause}
					a.sock.SendTo(in.Peer, in.PeerPort, reply.Encode())
					delete(a.calls, in.key())
					in.state = StateNull
				}
				return
			}
			a.finish(c)
		}
	}
}

func (a *Agent) finish(c *Call) {
	if c.state == StateActive || c.state == StateReleaseRequest {
		a.Stats.CallsCompleted++
	}
	a.Stats.Released++
	c.state = StateNull
	delete(a.calls, c.key())
}

// SimConfig models this signalling stack on the paper's machine for one
// discipline, for the §1 goal benchmark: four layers (SSCOP-style
// reliable link, codec, call control, admission/routing), each with a
// signalling-sized code working set, handling ~120-byte messages.
//
// Layer code of 6 KB matches the paper's observation that signalling
// protocols are built from several standard layers whose sum exceeds the
// primary cache; issue costs are lighter than TCP's bulk path because
// per-message work is mostly field handling.
func SimConfig(d core.Discipline) sim.Config {
	// The goal's own arithmetic bounds the per-message budget: 10000
	// pairs/s × 2 messages at 100 MHz leaves 5000 cycles per message, so
	// each of the four layers may issue ~700 cycles of straight-line work
	// — achievable for field-bashing signalling code, and exactly why the
	// instruction-fetch stalls (not the instruction counts) are what
	// breaks the goal on a conventional stack.
	cfg := sim.DefaultConfig(d)
	cfg.Layers = 4
	cfg.LayerCode = 6144
	cfg.LayerData = 512 // call tables are bigger than TCP PCB rows
	cfg.IssueFixed = 700
	cfg.IssuePerByte = 0.5
	return cfg
}

// MessageBytes is the modeled signalling message size ("on the order of a
// hundred bytes or less").
const MessageBytes = 120

// GoalPairsPerSec and GoalLatency state the paper's §1 target.
const (
	GoalPairsPerSec = 10000
	GoalLatency     = 100e-6
)

// MessagesPerPair is the number of messages a transit switch processes
// per setup/teardown pair in this protocol (SETUP + RELEASE on the
// forward path; the reverse-direction messages load the peer).
const MessagesPerPair = 2

func init() {
	// The constants above must stay consistent with the codec: a SETUP
	// encodes to well under MessageBytes.
	m := Message{CallRef: 1, Type: MsgSetup, Called: 2, Calling: 3, PeakCells: 4}
	if n := len(m.Encode()); n > MessageBytes {
		panic(fmt.Sprintf("signal: SETUP encodes to %d bytes > model's %d", n, MessageBytes))
	}
}

// Timer defaults, after Q.931: T303 guards SETUP, T308 guards RELEASE.
const (
	DefaultT303 = 4.0 // seconds
	DefaultT308 = 4.0
	// maxAttempts is how many times a guarded message is sent in total
	// before the call is abandoned (Q.931 retransmits once).
	maxAttempts = 2
)

// timers returns the agent's effective timer values.
func (a *Agent) timers() (t303, t308 float64) {
	t303, t308 = a.T303, a.T308
	if t303 <= 0 {
		t303 = DefaultT303
	}
	if t308 <= 0 {
		t308 = DefaultT308
	}
	return
}

// armTimer sets a call's guard deadline from now.
func (c *Call) armTimer(d float64) {
	c.deadline = c.agent.host.Now() + d
	c.attempts++
}

// Tick fires the agent's protocol timers: retransmit unanswered SETUPs
// (T303) and RELEASEs (T308), in issue order, abandoning the call after
// maxAttempts. Call it whenever the network clock advances.
func (a *Agent) Tick() {
	now := a.host.Now()
	t303, t308 := a.timers()
	byIssue := func(x, y *Call) int { return cmp.Compare(x.issued, y.issued) }
	for _, c := range slices.SortedFunc(maps.Values(a.calls), byIssue) {
		switch c.state {
		case StateCallInitiated:
			if now < c.deadline {
				continue
			}
			if c.attempts >= maxAttempts {
				a.Stats.TimedOut++
				c.state = StateNull
				delete(a.calls, c.key())
				continue
			}
			a.Stats.SetupRetransmits++
			a.send(c, Message{CallRef: c.Ref, Type: MsgSetup, Called: c.Called, Calling: c.Calling, PeakCells: c.Peak})
			c.armTimer(t303)
		case StateReleaseRequest:
			if now < c.deadline {
				continue
			}
			if c.attempts >= maxAttempts {
				// Q.931: clear the call locally after T308 expires twice.
				a.Stats.TimedOut++
				a.finish(c)
				continue
			}
			a.Stats.ReleaseRetransmits++
			a.send(c, Message{CallRef: c.Ref, Type: MsgRelease, Cause: CauseNormal})
			c.armTimer(t308)
		}
	}
}
