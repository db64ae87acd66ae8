package netstack

import (
	"encoding/binary"

	"ldlp/internal/checksum"
	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/telemetry"
)

// ICMP echo: the smallest of small-message protocols (§1 name-checks
// ICMP explicitly). Enough for ping — echo request/reply with id,
// sequence and payload — flowing through the same LDLP-schedulable
// receive path as TCP and UDP.

const (
	icmpEchoReply   = 0
	icmpEchoRequest = 8
	icmpHeaderLen   = 8
)

// PingReply records one received echo reply.
type PingReply struct {
	From    layers.IPAddr
	ID, Seq uint16
	Payload []byte
}

// Ping sends an ICMP echo request. Replies are collected on the host;
// retrieve them with PingReplies after pumping the network. Pump-side:
// the request is built on the pump's transport shard.
//
//ldlp:quiescent
func (h *Host) Ping(dst layers.IPAddr, id, seq uint16, payload []byte) {
	h.pumpShard().sendICMP(dst, icmpEchoRequest, id, seq, payload)
}

// PingReplies drains the received echo replies.
func (h *Host) PingReplies() []PingReply {
	h.icmpMu.Lock()
	defer h.icmpMu.Unlock()
	out := h.pingReplies
	h.pingReplies = nil
	return out
}

func (ts *transportShard) sendICMP(dst layers.IPAddr, typ byte, id, seq uint16, payload []byte) {
	m := ts.pool.FromBytes(payload)
	mm, hdr := m.Prepend(icmpHeaderLen)
	hdr[0] = typ
	hdr[1] = 0 // code
	binary.BigEndian.PutUint16(hdr[4:6], id)
	binary.BigEndian.PutUint16(hdr[6:8], seq)
	var acc checksum.Accumulator
	acc.Add(hdr)
	acc.Add(payload)
	binary.BigEndian.PutUint16(hdr[2:4], acc.Sum16())
	ts.ipOutput(mm, layers.ProtoICMP, dst)
}

// icmpInput is the receive-path ICMP layer: validates the checksum,
// answers echo requests, records echo replies. Echo replies are sent
// lock-free on the receiving shard (echo has no connection state); only
// the host-wide reply list — which fans in from every shard — takes a
// lock, held just for the append. A declared cold step: echo handling
// builds reply payloads and sits outside the zero-alloc contract.
//
//ldlp:coldpath
func (rx *rxPath) icmpInput(p *Packet, emit core.Emit[*Packet]) {
	h := rx.h
	buf := p.M.Contiguous()
	if len(buf) < icmpHeaderLen {
		rx.reject(p, rx.icmpin, telemetry.DropBadICMP)
		return
	}
	if checksum.Simple(buf) != 0 {
		rx.reject(p, rx.icmpin, telemetry.DropBadICMP)
		return
	}
	typ := buf[0]
	id := binary.BigEndian.Uint16(buf[4:6])
	seq := binary.BigEndian.Uint16(buf[6:8])
	payload := append([]byte(nil), buf[icmpHeaderLen:]...)
	switch typ {
	case icmpEchoRequest:
		inc(&h.Counters.EchoRequests)
		rx.ts.sendICMP(p.IP.Src, icmpEchoReply, id, seq, payload)
	case icmpEchoReply:
		inc(&h.Counters.EchoReplies)
		h.icmpMu.Lock()
		h.pingReplies = append(h.pingReplies, PingReply{From: p.IP.Src, ID: id, Seq: seq, Payload: payload})
		h.icmpMu.Unlock()
	default:
		rx.reject(p, rx.icmpin, telemetry.DropBadICMP)
		return
	}
	emit(rx.sock, p)
}
