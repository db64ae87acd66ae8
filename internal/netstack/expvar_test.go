package netstack

import (
	"encoding/json"
	"expvar"
	"fmt"
	"testing"

	"ldlp/internal/core"
)

func TestQueueDepthsShape(t *testing.T) {
	_, a, _ := twoHosts(t, core.Conventional)
	if d := a.QueueDepths(); len(d) != 1 || d[0] != 0 {
		t.Errorf("single-threaded depths = %v, want [0]", d)
	}
	n := NewNet()
	sh := n.AddHost("s", layers4(), ShardedOptions(3))
	defer n.Close()
	if d := sh.QueueDepths(); len(d) != 3 {
		t.Errorf("sharded depths = %v, want 3 entries", d)
	}
}

// layers4 is a throwaway address distinct from ipA/ipB.
func layers4() [4]byte { return [4]byte{10, 0, 9, 9} }

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

	var hostVars struct {
		QueueDepths []int `json:"queueDepths"`
		FramesOut   int64 `json:"framesOut"`
	}
	name := fmt.Sprintf("netstack.a.%d", a.id)
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("%s not published", name)
	}
	if err := json.Unmarshal([]byte(v.String()), &hostVars); err != nil {
		t.Fatalf("%s not JSON: %v", name, err)
	}
	if hostVars.FramesOut != 1 || len(hostVars.QueueDepths) != 1 {
		t.Errorf("%s = %+v, want framesOut 1 and one queue", name, hostVars)
	}

	var poolVars struct {
		Allocs int64 `json:"allocs"`
		InUse  int64 `json:"inUse"`
	}
	pv := expvar.Get("netstack.mbufpool")
	if pv == nil {
		t.Fatal("netstack.mbufpool not published")
	}
	if err := json.Unmarshal([]byte(pv.String()), &poolVars); err != nil {
		t.Fatalf("netstack.mbufpool not JSON: %v", err)
	}
	if poolVars.Allocs == 0 || poolVars.InUse != 0 {
		t.Errorf("pool vars = %+v, want traffic seen and nothing in use", poolVars)
	}

	// A second net reusing the host name must publish, not panic, and
	// its entry must read the new host.
	_, a2, _ := twoHosts(t, core.LDLP)
	a2.PublishExpvars()
	if err := json.Unmarshal([]byte(expvar.Get(fmt.Sprintf("netstack.a.%d", a2.id)).String()), &hostVars); err != nil {
		t.Fatal(err)
	}
	if hostVars.FramesOut != 0 {
		t.Errorf("second host named a: framesOut = %d, want the fresh host's 0", hostVars.FramesOut)
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

	read := func(name string) map[string]any {
		t.Helper()
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("%s not published", name)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
			t.Fatalf("%s not JSON: %v", name, err)
		}
		return m
	}
	c1 := read(fmt.Sprintf("netstack.a.%d", a1.id))
	c2 := read(fmt.Sprintf("netstack.a.%d", a2.id))
	if got := c1["framesOut"].(float64); got != 1 {
		t.Errorf("canonical a1 framesOut = %v, want 1", got)
	}
	if got := c2["framesOut"].(float64); got != 0 {
		t.Errorf("canonical a2 framesOut = %v, want 0 (crosstalk from a1?)", got)
	}
	// Re-publishing an already-published host is a no-op, not a panic.
	a1.PublishExpvars()

	// Telemetry histogram summaries ride along: a1 flushed one
	// single-frame tx batch.
	tel, ok := c1["telemetry"].(map[string]any)
	if !ok {
		t.Fatalf("canonical a1 has no telemetry map: %v", c1)
	}
	tx, ok := tel["tx-batch"].(map[string]any)
	if !ok {
		t.Fatalf("telemetry has no tx-batch summary: %v", tel)
	}
	if got := tx["count"].(float64); got != 1 {
		t.Errorf("tx-batch count = %v, want 1", got)
	}
	checkNoLeaks(t)
}
