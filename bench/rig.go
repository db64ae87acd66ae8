package main

import (
	"fmt"
	"math/rand"

	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

var (
	ipA = layers.IPAddr{10, 0, 0, 1} // client side
	ipB = layers.IPAddr{10, 0, 0, 2} // server side: the host under measurement
)

// newRNG derives a private generator for one purpose from the run's
// seed, so adding a consumer never shifts another consumer's stream.
func newRNG(seed int64, purpose string) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, b := range []byte(purpose) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// maxDials bounds TCP dials per process. netstack draws every dialling
// host's local port from one process-global uint16 that starts at 32768
// and is never reset, so after 32 767 dials it wraps into the low ports.
// The largest run (tcp_rx_k14: three set-ups of two 4096-connection
// rigs) makes 24 576; refusing beyond 30 000 turns a silent wrap into a
// set-up error.
const maxDials = 30_000

var dials int

// takeDials books n dials against the process's budget.
func takeDials(n int) error {
	if dials+n > maxDials {
		return fmt.Errorf("dial budget: %d made + %d wanted > %d (the process-global ephemeral port would wrap)", dials, n, maxDials)
	}
	dials += n
	return nil
}

// carrierNet is a netstack.Net whose hosts' transmissions are diverted,
// through SetCarrier, into a queue the rig delivers by hand. That is
// what lets the benchmark see, copy and replay wire frames using only
// exported calls. Traffic never leaves memory: there is no real link.
type carrierNet struct {
	net   *netstack.Net
	hosts map[layers.MACAddr]*netstack.Host
	q     []queuedFrame
	// tap, when set, sees every frame as it is delivered.
	tap func(dst *netstack.Host, frame []byte)
	// stray counts frames transmitted while delivery was off: the replay
	// workloads expect none.
	stray   int64
	deliver bool
}

type queuedFrame struct {
	dst layers.MACAddr
	m   *mbuf.Mbuf
}

func newCarrierNet() *carrierNet {
	cn := &carrierNet{net: netstack.NewNet(), hosts: map[layers.MACAddr]*netstack.Host{}, deliver: true}
	cn.net.SetCarrier(func(dst layers.MACAddr, m *mbuf.Mbuf) {
		if !cn.deliver {
			cn.stray++
			m.FreeChain()
			return
		}
		cn.q = append(cn.q, queuedFrame{dst, m})
	})
	return cn
}

func (cn *carrierNet) addHost(name string, ip layers.IPAddr, opts netstack.Options) *netstack.Host {
	h := cn.net.AddHost(name, ip, opts)
	cn.hosts[netstack.MACFor(ip)] = h
	return h
}

// run delivers queued frames, pumping the receiver after each, until
// nothing is in flight.
func (cn *carrierNet) run() {
	for i := 0; i < len(cn.q); i++ {
		f := cn.q[i]
		h, ok := cn.hosts[f.dst]
		if !ok {
			f.m.FreeChain()
			continue
		}
		if cn.tap != nil {
			cn.tap(h, f.m.Contiguous())
		}
		h.InjectFrame(f.m)
		h.Pump()
	}
	cn.q = cn.q[:0]
}

// tcpRig is two hosts with established TCP connections from a to b, and
// for each connection a copy of the bare ACK that completed its
// handshake. Replayed into b, that ACK matches the connection's state
// exactly (its sequence number is what b expects, it acknowledges
// nothing new), so b takes the header-prediction fast path, changes
// nothing and sends nothing: the steady-state small-message receive
// cycle, as many times as wanted.
type tcpRig struct {
	cn       *carrierNet
	a, b     *netstack.Host
	listener *netstack.TCPListener
	acks     [][]byte
}

const tcpRigPort = 80

func newTCPRig(opts netstack.Options, flows int) (*tcpRig, error) {
	if err := takeDials(flows); err != nil {
		return nil, err
	}
	r := &tcpRig{cn: newCarrierNet(), acks: make([][]byte, 0, flows)}
	r.a = r.cn.addHost("a", ipA, opts)
	r.b = r.cn.addHost("b", ipB, opts)
	l, err := r.b.ListenTCP(tcpRigPort)
	if err != nil {
		return nil, err
	}
	r.listener = l
	var lastToB []byte
	r.cn.tap = func(dst *netstack.Host, frame []byte) {
		if dst == r.b {
			lastToB = append(lastToB[:0], frame...)
		}
	}
	for i := 0; i < flows; i++ {
		s := r.a.DialTCP(ipB, tcpRigPort)
		r.a.Pump() // under LDLP the SYN waits in the transmit queue until a pump
		r.cn.run()
		// Accept as we dial: the listener's backlog holds 16 connections
		// and drops SYNs beyond that.
		if r.listener.Accept() == nil || !s.Established() {
			return nil, fmt.Errorf("connection %d: handshake did not complete", i)
		}
		if len(lastToB) != layers.EthernetLen+layers.IPv4MinLen+layers.TCPMinLen {
			return nil, fmt.Errorf("connection %d: last frame to b is %d bytes, not a bare ACK", i, len(lastToB))
		}
		r.acks = append(r.acks, append([]byte(nil), lastToB...))
	}
	r.cn.tap = nil
	r.cn.deliver = false // from here on b should transmit nothing
	return r, nil
}

// replay injects frames k at a time with a pump after each burst, for
// bursts bursts, and returns frames injected. order picks the flow of
// each frame; *pos walks it cyclically. rec, when non-nil, records a
// span around each call into netstack.
func (r *tcpRig) replay(k, bursts int, order []uint16, pos *int, rec *spanRec) int64 {
	b := r.b
	at := *pos
	for i := 0; i < bursts; i++ {
		for j := 0; j < k; j++ {
			frame := r.acks[order[at]]
			at++
			if at == len(order) {
				at = 0
			}
			rec.begin(spFrameAlloc)
			m := b.FrameFromBytes(frame)
			rec.end()
			rec.begin(spInject)
			b.InjectFrame(m)
			rec.end()
		}
		rec.begin(spPump)
		b.Pump()
		rec.end()
	}
	*pos = at
	return int64(k * bursts)
}

func (r *tcpRig) close() { r.cn.net.Close() }

// hostTrouble lists every drop or error counter of h that moved: none
// should on any workload here.
func hostTrouble(name string, h *netstack.Host) []string {
	c := &h.Counters
	var out []string
	for _, e := range []struct {
		what string
		n    int64
	}{
		{"BadEther", c.BadEther}, {"BadIP", c.BadIP}, {"BadTCP", c.BadTCP}, {"BadUDP", c.BadUDP},
		{"BadICMP", c.BadICMP}, {"NoSocket", c.NoSocket}, {"TimeoutDrops", c.TimeoutDrops},
		{"Retransmits", c.Retransmits}, {"ReassemblyTimeouts", c.ReassemblyTimeouts},
		{"StackStats.Dropped", h.StackStats().Dropped},
	} {
		if e.n != 0 {
			out = append(out, fmt.Sprintf("%s: %s = %d", name, e.what, e.n))
		}
	}
	return out
}
