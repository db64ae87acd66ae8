package netstack

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

// TestCarrierWiresTwoNets drives two hosts on separate Nets through an
// external carrier — the multi-host wiring the fleet simulator builds
// on. Every transmitted frame must leave through the carrier (never the
// internal wire), and InjectFrame + Pump must complete the UDP round
// trip under both disciplines.
func TestCarrierWiresTwoNets(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		t.Run(d.String(), func(t *testing.T) {
			ipA := layers.IPAddr{10, 0, 0, 1}
			ipB := layers.IPAddr{10, 0, 0, 2}
			netA, netB := NewNet(), NewNet()
			a := netA.AddHost("a", ipA, DefaultOptions(d))
			b := netB.AddHost("b", ipB, DefaultOptions(d))
			defer netA.Close()
			defer netB.Close()

			// The carrier routes by MAC across the two chassis; frames to
			// anyone else are freed and counted.
			var carried, unroutable int
			carry := func(dst layers.MACAddr, m *mbuf.Mbuf) {
				carried++
				switch dst {
				case MACFor(ipA):
					a.InjectFrame(m)
				case MACFor(ipB):
					b.InjectFrame(m)
				default:
					unroutable++
					m.FreeChain()
				}
			}
			netA.SetCarrier(carry)
			netB.SetCarrier(carry)

			sockA, err := a.UDPSocket(9000)
			if err != nil {
				t.Fatal(err)
			}
			sockB, err := b.UDPSocket(9000)
			if err != nil {
				t.Fatal(err)
			}

			sockA.SendTo(ipB, 9000, []byte("ping"))
			a.Pump() // flush A's tx queue through the carrier (LDLP batches it)
			b.Pump() // run B's receive path
			dg, ok := sockB.Recv()
			if !ok || string(dg.Data) != "ping" {
				t.Fatalf("B did not receive the datagram: ok=%v data=%q", ok, dg.Data)
			}
			sockB.SendTo(dg.Src, dg.SrcPort, []byte("pong"))
			b.Pump()
			a.Pump()
			if dg, ok = sockA.Recv(); !ok || string(dg.Data) != "pong" {
				t.Fatalf("A did not receive the reply: ok=%v data=%q", ok, dg.Data)
			}

			if carried != 2 {
				t.Fatalf("carrier saw %d frames, want 2", carried)
			}
			if unroutable != 0 {
				t.Fatalf("carrier saw %d unroutable frames", unroutable)
			}
		})
	}
}

// TestAdvanceToIsMonotonic pins the carrier-scheduler clock contract:
// completion times from interleaved per-node events may arrive out of
// order, and the shared clock must never run backwards.
func TestAdvanceToIsMonotonic(t *testing.T) {
	n := NewNet()
	n.AdvanceTo(1.5)
	if n.Now() != 1.5 {
		t.Fatalf("Now = %v, want 1.5", n.Now())
	}
	n.AdvanceTo(0.7) // earlier completion from another node's event
	if n.Now() != 1.5 {
		t.Fatalf("AdvanceTo ran the clock backwards: %v", n.Now())
	}
	n.AdvanceTo(2.25)
	if n.Now() != 2.25 {
		t.Fatalf("Now = %v, want 2.25", n.Now())
	}
}

// TestSameHostSameWire builds the same pair of hosts twice in one
// process, once before and once after an unrelated host that opens a
// connection of its own, and requires identical wire bytes from the
// two builds: a host's sequence numbers, pool shards and flow-table
// seeds come from its own Net, not from what else the process built.
func TestSameHostSameWire(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			first := pairWire(t, shards)
			other := NewNet()
			other.AddHost("other", ipA, ShardedOptions(3)).DialTCP(ipB, 80)
			other.Close()
			second := pairWire(t, shards)
			if len(first) < 8 || !slices.EqualFunc(first, second, bytes.Equal) {
				for i := range min(len(first), len(second)) {
					if !bytes.Equal(first[i], second[i]) {
						t.Fatalf("frame %d of %d/%d differs:\n%x\n%x", i, len(first), len(second), first[i], second[i])
					}
				}
				t.Fatalf("builds sent %d and %d frames", len(first), len(second))
			}
		})
	}
}

// pairWire runs a TCP connection from an LDLP client to a server on
// shards receive shards, data both ways, and returns every frame the
// pair put on the wire, in order.
func pairWire(t *testing.T, shards int) [][]byte {
	t.Helper()
	n := NewNet()
	defer n.Close()
	var wire [][]byte
	n.SetCarrier(func(dst layers.MACAddr, m *mbuf.Mbuf) {
		wire = append(wire, bytes.Clone(m.Contiguous()))
		n.hosts[dst].InjectFrame(m)
	})
	srvOpts := DefaultOptions(core.LDLP)
	if shards > 1 {
		srvOpts = ShardedOptions(shards)
	}
	a := n.AddHost("a", ipA, DefaultOptions(core.LDLP))
	b := n.AddHost("b", ipB, srvOpts)
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	cli := a.DialTCP(ipB, 80)
	var srv *TCPSock
	for i := 0; i < 20 && srv == nil; i++ {
		n.Tick(0.01)
		srv = l.Accept()
	}
	if srv == nil {
		t.Fatal("handshake incomplete")
	}
	if err := cli.Send([]byte("request")); err != nil {
		t.Fatal(err)
	}
	n.Tick(0.01)
	if err := srv.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	for range 10 {
		n.Tick(0.1)
	}
	return wire
}
