package signal

import (
	"fmt"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

// lossyPair builds two agents with a controllable frame-loss predicate.
func lossyPair(t *testing.T) (*netstack.Net, *Agent, *Agent) {
	t.Helper()
	mbuf.ResetPool()
	n := netstack.NewNet()
	hu := n.AddHost("user", ipU, netstack.DefaultOptions(core.Conventional))
	hn := n.AddHost("network", ipN, netstack.DefaultOptions(core.Conventional))
	au, err := NewAgent(hu, 100)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAgent(hn, 200)
	if err != nil {
		t.Fatal(err)
	}
	return n, au, an
}

// tickPump advances the clock and runs agents until quiescent.
func tickPump(n *netstack.Net, dt float64, agents ...*Agent) {
	n.Tick(dt)
	for i := 0; i < 10; i++ {
		progress := n.RunUntilIdle() > 0
		for _, a := range agents {
			in := a.Stats.MsgsIn
			a.Tick()
			a.Poll()
			if a.Stats.MsgsIn != in {
				progress = true
			}
		}
		if n.RunUntilIdle() > 0 {
			progress = true
		}
		if !progress {
			return
		}
	}
}

func TestT303RetransmitRecoversLostSetup(t *testing.T) {
	n, au, an := lossyPair(t)
	// Drop exactly the first SETUP frame to the network side.
	dropped := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipN && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	call := au.Dial(ipN, 200, 1)
	tickPump(n, 0.01, au, an)
	if call.State() == StateActive {
		t.Fatal("call completed despite the lost SETUP")
	}
	// T303 (4s default) fires; the retransmitted SETUP gets through.
	tickPump(n, 4.1, au, an)
	if au.Stats.SetupRetransmits != 1 {
		t.Errorf("setup retransmits = %d, want 1", au.Stats.SetupRetransmits)
	}
	if call.State() != StateActive {
		t.Errorf("call state after retransmit = %v, want active", call.State())
	}
}

func TestT303GivesUpAfterMaxAttempts(t *testing.T) {
	n, au, an := lossyPair(t)
	// Black-hole every frame to the network side.
	n.Loss = func(dst layers.IPAddr, data []byte) bool { return dst == ipN }
	call := au.Dial(ipN, 200, 1)
	for i := 0; i < 4; i++ {
		tickPump(n, 4.1, au, an)
	}
	if call.State() != StateNull {
		t.Errorf("unanswerable call state = %v, want null", call.State())
	}
	if au.Stats.TimedOut != 1 {
		t.Errorf("timed out = %d, want 1", au.Stats.TimedOut)
	}
	if au.Stats.SetupRetransmits != 1 {
		t.Errorf("setup retransmits = %d, want 1 (then give up)", au.Stats.SetupRetransmits)
	}
	if au.CallFor(call.Ref) != nil {
		t.Error("abandoned call still tracked")
	}
}

func TestT308RetransmitRecoversLostRelease(t *testing.T) {
	n, au, an := lossyPair(t)
	call := au.Dial(ipN, 200, 1)
	tickPump(n, 0.01, au, an)
	if call.State() != StateActive {
		t.Fatal("setup failed")
	}
	// Drop the first RELEASE.
	dropped := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipN && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	call.Hangup()
	tickPump(n, 0.01, au, an)
	if call.State() != StateReleaseRequest {
		t.Fatalf("state = %v, want release-request while RELEASE lost", call.State())
	}
	tickPump(n, 4.1, au, an)
	if au.Stats.ReleaseRetransmits != 1 {
		t.Errorf("release retransmits = %d, want 1", au.Stats.ReleaseRetransmits)
	}
	if call.State() != StateNull {
		t.Errorf("state after retransmitted RELEASE = %v, want null", call.State())
	}
	if an.ActiveCalls() != 0 {
		t.Error("network side still holds the call")
	}
}

func TestT308LocalClearAfterTimeouts(t *testing.T) {
	n, au, an := lossyPair(t)
	call := au.Dial(ipN, 200, 1)
	tickPump(n, 0.01, au, an)
	// Peer vanishes entirely.
	n.Loss = func(dst layers.IPAddr, data []byte) bool { return dst == ipN }
	call.Hangup()
	for i := 0; i < 4; i++ {
		tickPump(n, 4.1, au, an)
	}
	if call.State() != StateNull {
		t.Errorf("state = %v, want locally cleared", call.State())
	}
	if au.Stats.TimedOut != 1 {
		t.Errorf("timeouts = %d, want 1", au.Stats.TimedOut)
	}
	// Local clear still counts the call as completed (it was active).
	if au.Stats.CallsCompleted != 1 {
		t.Errorf("completed = %d, want 1", au.Stats.CallsCompleted)
	}
}

func TestDuplicateSetupAfterRetransmitStillOneCall(t *testing.T) {
	n, au, an := lossyPair(t)
	// The original SETUP arrives but both response frames (CALL
	// PROCEEDING + CONNECT) are lost, so the caller's T303 fires and the
	// network sees a duplicate SETUP — which it must re-answer without
	// creating a second call.
	droppedBack := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipU && droppedBack < 2 {
			droppedBack++
			return true
		}
		return false
	}
	call := au.Dial(ipN, 200, 1)
	tickPump(n, 0.01, au, an)
	tickPump(n, 4.1, au, an) // T303 fires; duplicate SETUP is re-answered
	if an.Stats.SetupsReceived != 2 {
		t.Errorf("setups received = %d, want 2 (original + retransmit)", an.Stats.SetupsReceived)
	}
	if got := an.ActiveCalls(); got != 1 {
		t.Errorf("active calls at network = %d, want 1 (dup ignored)", got)
	}
	if call.State() != StateActive {
		t.Errorf("caller state = %v", call.State())
	}
}

func TestCustomTimerValues(t *testing.T) {
	n, au, an := lossyPair(t)
	au.T303 = 0.5
	dropped := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipN && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	call := au.Dial(ipN, 200, 1)
	tickPump(n, 0.6, au, an) // custom short T303 fires
	if au.Stats.SetupRetransmits != 1 || call.State() != StateActive {
		t.Errorf("short T303: retransmits=%d state=%v", au.Stats.SetupRetransmits, call.State())
	}
}

// Tick retransmits overdue calls in issue order, so which retries a
// seeded loss model drops is a function of the seed alone.
func TestTickRetransmitsInIssueOrder(t *testing.T) {
	const udp = layers.EthernetLen + layers.IPv4MinLen + layers.UDPLen
	for run := 0; run < 20; run++ {
		n, au, _ := lossyPair(t)
		var refs []uint32
		n.Loss = func(dst layers.IPAddr, frame []byte) bool {
			if m, err := Decode(frame[udp:]); err == nil {
				refs = append(refs, m.CallRef&^callRefFlag)
			}
			return true // the network side never answers
		}
		for i := 0; i < 10; i++ {
			au.Dial(ipN, 200, 1)
		}
		n.RunUntilIdle()
		refs = nil
		n.Tick(4.1) // past T303
		au.Tick()
		n.RunUntilIdle()
		if got := fmt.Sprint(refs); got != "[1 2 3 4 5 6 7 8 9 10]" {
			t.Fatalf("agent %d retransmitted refs %s, want [1 2 3 4 5 6 7 8 9 10]", run, got)
		}
		n.Close()
	}
}
