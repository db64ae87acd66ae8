package ldlp

import (
	"ldlp/internal/dispatch"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/netstack"
	"ldlp/internal/signal"
	"ldlp/internal/sscop"
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

// ShardedHostOptions returns an LDLP host configuration whose receive
// path runs on the sharded engine: shards worker goroutines, frames
// partitioned by TCP/UDP 4-tuple (fragments by IP ID) so per-connection
// ordering is preserved. Call Net.Close (or Host.Close) to stop the
// workers when done.
func ShardedHostOptions(shards int) HostOptions { return netstack.ShardedOptions(shards) }

// --- receive-side dispatch ---

// DispatchPolicy decides which receive shard owns each inbound frame:
// Key derives the flow key from the raw frame, Shard maps it to a
// worker, and Rebalance (called only at quiescent pump points) may move
// key ranges between shards. Set one on HostOptions.Dispatch; the zero
// value (nil) is the static flow hash. Policy instances carry per-host
// state — build a fresh one per host.
type DispatchPolicy = dispatch.Policy

// DispatchMigration is one bucket move returned by a policy's Rebalance:
// every flow whose key it Covers changes owner at the quiescent point.
type DispatchMigration = dispatch.Migration

// HostDispatchStats reports a host's dispatch activity: the active
// policy, per-shard frame totals and imbalance, and how many rebalances,
// bucket moves, flow migrations and reassembly adoptions have happened.
// Read it from Host.Snapshot().Dispatch.
type HostDispatchStats = netstack.DispatchStats

// StaticDispatch returns the default policy: a pure flow hash, identical
// to leaving HostOptions.Dispatch nil. Useful as an explicit baseline.
func StaticDispatch() DispatchPolicy { return dispatch.Static{} }

// LoadAwareDispatch returns a policy that routes through an indirection
// table of DefaultBuckets hash buckets and, at every quiescent tick,
// greedily moves hot buckets off overloaded shards — bounded work per
// tick, per-flow FIFO preserved (migrations happen only while the
// workers are parked). shards must match HostOptions.RxShards.
func LoadAwareDispatch(shards int) DispatchPolicy {
	return dispatch.NewLoadAware(shards, dispatch.DefaultBuckets)
}

// RPCDispatchByXID returns the paper-motivated UDP RPC policy: requests
// to port from one host pair are spread across shards by their RPC
// transaction ID instead of sharing one flow bucket, so a single busy
// client/server pair can use the whole engine. Non-RPC traffic (and
// every fragment) falls back to the static flow hash.
func RPCDispatchByXID(port uint16) DispatchPolicy { return dispatch.NewRPCDispatch(port) }

// --- fault injection ---

// FaultConfig describes a composable set of link impairments: Bernoulli
// and Gilbert–Elliott bursty loss, timed partitions, duplication,
// reordering, delay with jitter, and single-bit corruption. Install it
// per-destination with Net.Impair (or Net.ImpairAll); every decision
// comes from one seeded generator, so a run replays exactly.
type FaultConfig = faults.Config

// FaultWindow is an absolute simulated-time interval, used for
// partition scheduling.
type FaultWindow = faults.Window

// GilbertElliott parameterises two-state bursty loss.
type GilbertElliott = faults.GilbertElliott

// FaultInjector is an installed impairment instance; read its Stats for
// the per-impairment counters.
type FaultInjector = faults.Injector

// FaultStats are the per-impairment counters of one injector.
type FaultStats = faults.Stats

// FaultPresets returns the named impairment mixes used by the chaos
// suite and cmd/chaos; FaultPresetNames lists them in running order.
func FaultPresets() map[string]FaultConfig { return faults.Presets() }

// FaultPresetNames returns the preset names in canonical order.
func FaultPresetNames() []string { return faults.PresetNames() }

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

// --- SSCOP (SAAL): the reliable link signalling actually rides on ---

// SSCOPLink is a Q.2110-style assured link endpoint (sequenced delivery,
// selective retransmission via POLL/STAT/USTAT) over the netstack.
type SSCOPLink = sscop.Link

// SSCOPState is the link state.
type SSCOPState = sscop.State

// NewSSCOPLink binds an SSCOP endpoint to a host port.
func NewSSCOPLink(h *Host, port uint16) (*SSCOPLink, error) {
	return sscop.New(h, port)
}
