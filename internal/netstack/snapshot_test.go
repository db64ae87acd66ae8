package netstack

import (
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"testing"

	"ldlp/internal/core"
)

func TestQueueDepthsShape(t *testing.T) {
	_, a, _ := twoHosts(t, core.Conventional)
	if d := a.Snapshot().QueueDepths; len(d) != 1 || d[0] != 0 {
		t.Errorf("single-threaded depths = %v, want [0]", d)
	}
	n := NewNet()
	sh := n.AddHost("s", layers4(), ShardedOptions(3))
	defer n.Close()
	if d := sh.Snapshot().QueueDepths; len(d) != 3 {
		t.Errorf("sharded depths = %v, want 3 entries", d)
	}
}

// layers4 is a throwaway address distinct from ipA/ipB.
func layers4() [4]byte { return [4]byte{10, 0, 9, 9} }

// TestSnapshotDiff drops one datagram for want of a socket and checks
// that Diff names the frame, the counter, both sides of the drop ledger
// and nothing about the events themselves.
func TestSnapshotDiff(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	before := b.Snapshot()
	if d := Diff(before, before); d != "" {
		t.Errorf("Diff of a snapshot with itself = %q, want empty", d)
	}
	sa, _ := a.UDPSocket(1)
	sa.SendTo(ipB, 9, []byte("x"))
	n.RunUntilIdle()
	d := Diff(before, b.Snapshot())
	for _, want := range []string{
		"Counters.FramesIn: 0 -> 1\n",
		"Counters.NoSocket: 0 -> 1\n",
		"Drops.no-socket: - -> 1\n",
		"DropEvents.no-socket: - -> 1\n",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Diff lacks %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, ".events.") {
		t.Errorf("Diff lists flight-recorder events:\n%s", d)
	}
	checkDropLedger(t, b)
}

func TestExpvarPublishAndRebind(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	a.PublishExpvars()
	b.PublishExpvars()
	sa, _ := a.UDPSocket(1)
	if _, err := b.UDPSocket(2); err != nil {
		t.Fatal(err)
	}
	sa.SendTo(ipB, 2, []byte("hi"))
	n.RunUntilIdle()

	// The published value is the host's Snapshot.
	name := fmt.Sprintf("netstack.a.%d", a.id)
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("%s not published", name)
	}
	var hostVars Snapshot
	if err := json.Unmarshal([]byte(v.String()), &hostVars); err != nil {
		t.Fatalf("%s not JSON: %v", name, err)
	}
	if hostVars.Counters.FramesOut != 1 || len(hostVars.QueueDepths) != 1 {
		t.Errorf("%s = framesOut %d, queues %v; want framesOut 1 and one queue",
			name, hostVars.Counters.FramesOut, hostVars.QueueDepths)
	}
	if hostVars.Pool.Allocs == 0 || hostVars.Pool.InUse != 0 {
		t.Errorf("pool = %+v, want traffic seen and nothing in use", hostVars.Pool)
	}

	// A second net reusing the host name must publish, not panic, and
	// its entry must read the new host.
	_, a2, _ := twoHosts(t, core.LDLP)
	a2.PublishExpvars()
	hostVars = Snapshot{}
	if err := json.Unmarshal([]byte(expvar.Get(fmt.Sprintf("netstack.a.%d", a2.id)).String()), &hostVars); err != nil {
		t.Fatal(err)
	}
	if hostVars.Counters.FramesOut != 0 {
		t.Errorf("second host named a: framesOut = %d, want the fresh host's 0", hostVars.Counters.FramesOut)
	}
	if expvar.Get("netstack.a") != nil {
		t.Error("bare netstack.a is published: it can only ever show one of the hosts named a")
	}
	checkNoLeaks(t)
}

// TestExpvarNoDoublePublishCrosstalk is the regression test for the
// double-publish hazard: when two same-named hosts are alive at once,
// each host's "netstack.<name>.<id>" entry must keep reading its own
// counters, not the other host's.
func TestExpvarNoDoublePublishCrosstalk(t *testing.T) {
	n1, a1, _ := twoHosts(t, core.LDLP)
	n2, a2, _ := twoHosts(t, core.LDLP)
	a1.PublishExpvars()
	a2.PublishExpvars()
	if a1.id == a2.id {
		t.Fatalf("host instance ids collide: %d", a1.id)
	}

	// Traffic on the first net only: one datagram out of a1.
	sa, _ := a1.UDPSocket(1)
	defer sa.Close()
	sa.SendTo(ipB, 9, []byte("x"))
	n1.RunUntilIdle()
	n2.RunUntilIdle()

	read := func(name string) Snapshot {
		t.Helper()
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("%s not published", name)
		}
		var s Snapshot
		if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
			t.Fatalf("%s not JSON: %v", name, err)
		}
		return s
	}
	c1 := read(fmt.Sprintf("netstack.a.%d", a1.id))
	c2 := read(fmt.Sprintf("netstack.a.%d", a2.id))
	if got := c1.Counters.FramesOut; got != 1 {
		t.Errorf("canonical a1 framesOut = %v, want 1", got)
	}
	if got := c2.Counters.FramesOut; got != 0 {
		t.Errorf("canonical a2 framesOut = %v, want 0 (crosstalk from a1?)", got)
	}
	// Re-publishing an already-published host is a no-op, not a panic.
	a1.PublishExpvars()

	// The flight recorder rides along: a1 flushed one single-frame tx
	// batch.
	if tx, ok := c1.Telemetry.Hist("tx-batch"); !ok || tx.Count != 1 {
		t.Errorf("tx-batch = %+v (found %v), want count 1", tx, ok)
	}
	checkNoLeaks(t)
}
