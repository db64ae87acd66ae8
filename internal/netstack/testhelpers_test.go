package netstack

import (
	"maps"
	"testing"
)

// Test-side views. Whole-host totals (PCBs leaked, partial datagrams
// held) come from the host's Snapshot, like every other assertion;
// the rest look into per-shard state regardless of which shard holds
// it, which production code never does outside the declared hand-off
// points.

// numPCBs counts live PCBs across all transport shards.
func (h *Host) numPCBs() int { return h.Snapshot().Flows.PCBs }

// numFrags counts partial datagrams held across all transport shards.
func (h *Host) numFrags() int {
	n := 0
	for _, st := range h.Snapshot().Shards {
		n += st.Frags
	}
	return n
}

// checkDropLedger fails t unless every drop h counted has its EvDrop in
// the flight recorder and vice versa. A tracer that lost events fails it
// too (DropEvents is nil): size the host's Options.TelemetryRing for the
// run.
func checkDropLedger(t *testing.T, h *Host) {
	t.Helper()
	if s := h.Snapshot(); !maps.Equal(s.Drops, s.DropEvents) {
		t.Errorf("%s: counted drops %v, recorded drop events %v", s.Name, s.Drops, s.DropEvents)
	}
}

// findPCB locates a tuple's PCB on whichever shard owns it.
func (h *Host) findPCB(t fourTuple) *tcpPCB {
	for _, ts := range h.tshards {
		if pcb, ok := ts.pcbs.Lookup(t); ok {
			return pcb
		}
	}
	return nil
}

// queuedTx counts frames parked in transmit queues across all shards.
func (h *Host) queuedTx() int {
	n := 0
	for _, ts := range h.tshards {
		n += len(ts.txq)
	}
	return n
}
