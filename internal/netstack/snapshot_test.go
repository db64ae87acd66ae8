package netstack

import (
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
