package netstack

// The single-entry PCB cache's invalidation obligation: every site that
// removes a PCB from its shard's table — teardown on reset, close or
// timeout — must also drop it from that shard's cached entry, or the
// next segment on the same 4-tuple is handed a dead or foreign PCB.

import (
	"bytes"
	"fmt"
	"testing"

	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

// checkPCBCache asserts that every shard's cached PCB, if any, is live
// and in that shard's own table.
func checkPCBCache(t *testing.T, h *Host) {
	t.Helper()
	for _, f := range pcbCacheFaults(h) {
		t.Error(f)
	}
}

// pcbCacheFaults lists the shards whose cached PCB is owned elsewhere
// or missing from the shard's table. Call at quiescence.
func pcbCacheFaults(h *Host) []string {
	var out []string
	for _, ts := range h.tshards {
		if ts.last == nil {
			continue
		}
		if ts.last.owner != ts {
			out = append(out, fmt.Sprintf("%s shard %d caches a PCB owned by shard %d", h.name, ts.idx, ts.last.owner.idx))
		}
		if pcb, ok := ts.pcbs.Lookup(ts.last.tuple); !ok || pcb != ts.last {
			out = append(out, fmt.Sprintf("%s shard %d caches a PCB (%s) its table no longer holds", h.name, ts.idx, ts.last.state))
		}
	}
	return out
}

// connect dials b:80 from a and pumps until the server accepts.
func connect(t *testing.T, n *Net, a *Host, l *TCPListener) (cli, srv *TCPSock) {
	t.Helper()
	cli = a.DialTCP(ipB, 80)
	for i := 0; i < 100 && srv == nil; i++ {
		n.Tick(0.01)
		srv = l.Accept()
	}
	if srv == nil {
		t.Fatalf("handshake never completed (client %s)", cli.State())
	}
	return cli, srv
}

// exchange sends msg from cli and checks srv reads exactly it.
func exchange(t *testing.T, n *Net, cli, srv *TCPSock, msg string) {
	t.Helper()
	if err := cli.Send([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
	buf := make([]byte, 64)
	if nr := srv.Recv(buf); !bytes.Equal(buf[:nr], []byte(msg)) {
		t.Fatalf("server read %q, want %q", buf[:nr], msg)
	}
}

// TestPCBCacheRedialSameTuple ends a connection three ways — reset,
// orderly close, retransmission timeout — and dials again on the same
// 4-tuple. The server must build a fresh PCB for the new connection and
// serve its segments from it, never from the dead one the cache held
// when the old connection ended.
func TestPCBCacheRedialSameTuple(t *testing.T) {
	ends := map[string]func(t *testing.T, n *Net, a, b *Host, cli, srv *TCPSock){
		"reset": func(t *testing.T, n *Net, a, b *Host, cli, srv *TCPSock) {
			tu := cli.pcb.tuple
			const rst = layers.TCPRst | layers.TCPAck
			b.deliver(mbuf.FromBytes(buildRawSegment(ipA, tu.lport, ipB, tu.rport, cli.pcb.sndNxt, cli.pcb.rcvNxt, rst)))
			a.deliver(mbuf.FromBytes(buildRawSegment(ipB, tu.rport, ipA, tu.lport, srv.pcb.sndNxt, srv.pcb.rcvNxt, rst)))
			n.RunUntilIdle()
		},
		"close": func(t *testing.T, n *Net, a, b *Host, cli, srv *TCPSock) {
			cli.Close()
			n.RunUntilIdle()
			srv.Close()
			n.RunUntilIdle()
			for i := 0; i < 100 && a.numPCBs() > 0; i++ {
				n.Tick(0.1) // the client's TIME-WAIT
			}
		},
		"timeout": func(t *testing.T, n *Net, a, b *Host, cli, srv *TCPSock) {
			n.Loss = func(layers.IPAddr, []byte) bool { return true }
			cli.Send([]byte("lost"))
			srv.Send([]byte("lost too"))
			for i := 0; i < 400 && (cli.Err() == nil || srv.Err() == nil); i++ {
				n.Tick(0.25)
			}
			n.Loss = nil
			if cli.Err() != ErrTimeout || srv.Err() != ErrTimeout {
				t.Fatalf("connection did not time out: cli=%v srv=%v", cli.Err(), srv.Err())
			}
		},
	}
	for _, combo := range chaosCombos {
		for _, end := range []string{"reset", "close", "timeout"} {
			t.Run(combo.name+"/"+end, func(t *testing.T) {
				mbuf.ResetPool()
				n := NewNet()
				t.Cleanup(n.Close)
				optB := DefaultOptions(combo.disc)
				optB.RxShards = combo.shards
				a := n.AddHost("client", ipA, DefaultOptions(combo.disc))
				b := n.AddHost("server", ipB, optB)
				l, err := b.ListenTCP(80)
				if err != nil {
					t.Fatal(err)
				}
				cli, srv := connect(t, n, a, l)
				exchange(t, n, cli, srv, "first life")
				old, tuple := srv.pcb, cli.pcb.tuple
				if old.owner.last != old {
					t.Fatal("the server's cache does not hold the live connection — test lost its premise")
				}

				ends[end](t, n, a, b, cli, srv)
				if a.numPCBs() != 0 || b.numPCBs() != 0 {
					t.Fatalf("PCBs left after %s: client %d, server %d", end, a.numPCBs(), b.numPCBs())
				}
				checkPCBCache(t, b)

				a.ephemeral = tuple.lport - 1 // the next dial reuses the port
				cli2, srv2 := connect(t, n, a, l)
				if cli2.pcb.tuple != tuple || srv2.pcb.tuple != old.tuple {
					t.Fatalf("redial used tuple %+v, want %+v", cli2.pcb.tuple, tuple)
				}
				if srv2.pcb == old {
					t.Fatal("the server handed the new connection the dead PCB")
				}
				exchange(t, n, cli2, srv2, "second life")
				if srv2.pcb.owner.last != srv2.pcb {
					t.Error("the new connection's segments were not served from its own PCB")
				}
				checkPCBCache(t, b)
				checkNoLeaks(t)
			})
		}
	}
}
