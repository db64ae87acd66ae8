package main

import (
	"fmt"
	"time"

	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

// tcpRx is the tcp_rx_k1 and tcp_rx_k14 workloads: the handshake ACKs of
// established connections replayed into the receiving host, k frames per
// pump. A message is one frame; a round is 64 bursts.
type tcpRx struct {
	p     params
	k     int // frames per pump
	flows int
	order []uint16 // seeded flow choice per frame, walked cyclically

	rigs     [numCfgs]*tcpRig
	sets     [numCfgs]hostSet
	fastBase [numCfgs]int64 // b's TCPFastPath once the rig stood
	pos      [numCfgs]int
	injected [numCfgs]int64 // frames injected since set-up, warm-up included
}

const (
	burstsPerRound = 64
	// tcpWarmFrames is the replay workloads' warm-up per configuration
	// (see params.warmRounds), in frames: 16 visits to each of
	// tcp_rx_k14's 4096 flows.
	tcpWarmFrames = 1 << 16
)

func newTCPRx(p params, k, flows int) *tcpRx {
	if p.quick {
		flows = min(flows, 256)
	}
	w := &tcpRx{p: p, k: k, flows: flows, order: make([]uint16, 1<<16)}
	rng := newRNG(p.seed, "tcp_rx flow order")
	for i := range w.order {
		w.order[i] = uint16(rng.Intn(flows))
	}
	return w
}

func (w *tcpRx) setup() error {
	// No frame is in flight between set-ups, so the pool can be emptied:
	// neither an earlier set-up's warmth nor its counters leak into this
	// one. Both configurations' rigs are built fresh, each on its own Net.
	mbuf.ResetPool()
	for c := conv; c < numCfgs; c++ {
		r, err := newTCPRig(netstack.DefaultOptions(disciplines[c]), w.flows)
		if err != nil {
			return fmt.Errorf("%s rig: %w", cfgNames[c], err)
		}
		w.rigs[c], w.pos[c], w.injected[c] = r, 0, 0
		w.sets[c].mark(r.b)
		w.fastBase[c] = r.b.Counters.TCPFastPath
		frames := int64(tcpWarmFrames)
		if w.p.quick {
			frames = 1 << 12
		}
		for w.injected[c] < frames {
			w.injected[c] += r.replay(w.k, burstsPerRound, w.order, &w.pos[c], nil)
		}
	}
	return nil
}

func (w *tcpRx) window(c cfgID, dur time.Duration, tail *tailHist, rec *spanRec) windowResult {
	r := w.rigs[c]
	res := timed(func() int64 {
		return roundLoop(dur, tail, rec, func(rec *spanRec) int64 {
			return r.replay(w.k, burstsPerRound, w.order, &w.pos[c], rec)
		})
	})
	w.injected[c] += res.msgs
	return res
}

func (w *tcpRx) verify() (attempted, failed int64, why []string) {
	for c := conv; c < numCfgs; c++ {
		r := w.rigs[c]
		attempted += w.injected[c]
		// Every replayed frame must have taken the fast path, and only
		// those: the handshakes themselves go the slow way.
		if fast := r.b.Counters.TCPFastPath - w.fastBase[c]; fast != w.injected[c] {
			failed += abs64(w.injected[c] - fast)
			why = append(why, fmt.Sprintf("%s: TCPFastPath rose by %d for %d frames injected", cfgNames[c], fast, w.injected[c]))
		}
		trouble := append(hostTrouble(cfgNames[c]+" b", r.b), hostTrouble(cfgNames[c]+" a", r.a)...)
		if d := r.listener.DroppedCount(); d != 0 {
			trouble = append(trouble, fmt.Sprintf("%s: listener dropped %d SYNs", cfgNames[c], d))
		}
		if r.cn.stray != 0 {
			trouble = append(trouble, fmt.Sprintf("%s: b transmitted %d frames during replay", cfgNames[c], r.cn.stray))
		}
		if depth := r.b.QueueDepths(); depth[0] != 0 {
			trouble = append(trouble, fmt.Sprintf("%s: %d frames still queued in b", cfgNames[c], depth[0]))
		}
		failed += int64(len(trouble))
		why = append(why, trouble...)
	}
	return attempted, failed, why
}

func (w *tcpRx) counts(out map[string]float64) {
	layerCounts(out, &w.sets[ldlp], w.injected[ldlp])
}

func (w *tcpRx) dialsPerSetup() int { return int(numCfgs) * w.flows }

func (w *tcpRx) teardown() {
	for c, r := range w.rigs {
		if r != nil {
			r.close()
			w.rigs[c] = nil
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
