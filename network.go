package ldlp

import (
	"ldlp/internal/layers"
	"ldlp/internal/netstack"
	"ldlp/internal/signal"
)

// This file exposes the runnable network substrate: the in-memory
// TCP/IP-lite stack whose receive path runs under either discipline, and
// the Q.93B-flavoured signalling protocol built on it.

// IPAddr is an IPv4 address.
type IPAddr = layers.IPAddr

// MACAddr is an Ethernet address.
type MACAddr = layers.MACAddr

// Net is an in-memory broadcast segment with an explicit clock; hosts
// attached to it exchange real Ethernet/IPv4/TCP/UDP frames.
type Net = netstack.Net

// Host is one endpoint: NIC, receive-path protocol stack (conventional
// or LDLP), transport state and sockets.
type Host = netstack.Host

// HostOptions configures a host's receive path.
type HostOptions = netstack.Options

// TCPSock, TCPListener and UDPSock are the socket API. A Datagram's
// Data belongs to the UDPSock that returned it and is valid until the
// receiving host is next pumped (Net.RunUntilIdle, Net.Tick,
// Host.Pump); copy it to keep it.
type (
	TCPSock     = netstack.TCPSock
	TCPListener = netstack.TCPListener
	UDPSock     = netstack.UDPSock
	Datagram    = netstack.Datagram
)

// HostCounters exposes the per-host protocol counters (fast-path hits,
// delayed ACKs, retransmits, ...).
type HostCounters = netstack.Counters

// NewNet creates an empty network segment.
func NewNet() *Net { return netstack.NewNet() }

// DefaultHostOptions returns a host configuration for the discipline
// (LDLP batches up to 14 frames, buffer bounded at 500 — the paper's
// parameters).
func DefaultHostOptions(d Discipline) HostOptions { return netstack.DefaultOptions(d) }

// --- signalling ---

// SignalAgent is a Q.93B-flavoured signalling endpoint.
type SignalAgent = signal.Agent

// SignalCall is one call association.
type SignalCall = signal.Call

// SignalMessage is a decoded signalling message.
type SignalMessage = signal.Message

// Signalling call states.
const (
	CallNull   = signal.StateNull
	CallActive = signal.StateActive
)

// NewSignalAgent binds a signalling agent to a host.
func NewSignalAgent(h *Host, address uint32) (*SignalAgent, error) {
	return signal.NewAgent(h, address)
}

// SignallingSimConfig models the signalling stack on the paper's machine
// for the §1 goal benchmark (10 000 setup/teardown pairs per second at
// 100 µs processing latency).
func SignallingSimConfig(d Discipline) SimConfig { return signal.SimConfig(d) }
