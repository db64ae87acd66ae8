package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
	"ldlp/internal/rpc"
)

// udpRPC is the udp_rpc workload: an NFS-lite client and server on one
// Net, eight calls per round from a seeded GETATTR / LOOKUP / READ mix,
// every reply decoded and compared with what the file server was seeded
// with. A message is one completed call.
type udpRPC struct {
	p     params
	files []rpcFile
	ops   []rpcOp // seeded call sequence, walked cyclically

	rigs [numCfgs]*rpcRig
	sets [numCfgs]hostSet
}

type rpcFile struct {
	name string
	fh   uint32
	data []byte
}

type rpcOp struct {
	proc uint32
	file int
	off  uint32
}

type rpcRig struct {
	net      *netstack.Net
	cli, srv *netstack.Host
	server   *rpc.Server
	client   *rpc.Client
	pos      int
	calls    int64
	wrong    int64
	firstBad string
	pending  [callsPerRound]*rpc.Pending
	asked    [callsPerRound]rpcOp
}

const (
	callsPerRound = 8
	rpcFiles      = 8
	rpcReadLen    = 512
	rpcPort       = 2049
	rpcClientPort = 1023
)

func newUDPRPC(p params) *udpRPC {
	w := &udpRPC{p: p}
	rng := newRNG(p.seed, "udp_rpc files and mix")
	for i := 0; i < rpcFiles; i++ {
		data := make([]byte, 1024+rng.Intn(3072))
		rng.Read(data)
		w.files = append(w.files, rpcFile{name: fmt.Sprintf("file%02d", i), data: data})
	}
	// The mix is exact — 60 % GETATTR, 25 % LOOKUP, 15 % READ of every
	// 4000 calls — and the seed only orders it, so that bytes and
	// allocations per call do not depend on the seed.
	w.ops = make([]rpcOp, 4000)
	for i := range w.ops {
		op := rpcOp{file: rng.Intn(rpcFiles)}
		switch x := i % 100; {
		case x < 60:
			op.proc = rpc.ProcGetAttr
		case x < 85:
			op.proc = rpc.ProcLookup
		default:
			op.proc = rpc.ProcRead
			op.off = uint32(rng.Intn(len(w.files[op.file].data) - rpcReadLen))
		}
		w.ops[i] = op
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w
}

func (w *udpRPC) setup() error {
	mbuf.ResetPool() // see tcpRx.setup
	for c := conv; c < numCfgs; c++ {
		opts := netstack.DefaultOptions(disciplines[c])
		r := &rpcRig{net: netstack.NewNet()}
		r.cli = r.net.AddHost("client", ipA, opts)
		r.srv = r.net.AddHost("server", ipB, opts)
		var err error
		if r.server, err = rpc.NewServer(r.srv, rpcPort); err != nil {
			return err
		}
		fs := rpc.NewFileServer(r.server)
		for i := range w.files {
			w.files[i].fh = fs.Create(w.files[i].name, w.files[i].data)
		}
		if r.client, err = rpc.NewClient(r.cli, rpcClientPort, ipB, rpcPort); err != nil {
			return err
		}
		w.rigs[c] = r
		w.sets[c].mark(r.cli, r.srv)
		for i := 0; i < w.p.warmRounds(); i++ {
			w.round(r, nil)
		}
	}
	return nil
}

// round issues callsPerRound calls, pumps them to the server, serves
// them, pumps the replies back, and checks each one.
func (w *udpRPC) round(r *rpcRig, rec *spanRec) int64 {
	for i := range r.pending {
		op := w.ops[r.pos]
		if r.pos++; r.pos == len(w.ops) {
			r.pos = 0
		}
		r.asked[i] = op
		f := &w.files[op.file]
		var args []byte
		switch op.proc {
		case rpc.ProcGetAttr:
			args = rpc.GetAttrArgs(f.fh)
		case rpc.ProcLookup:
			args = rpc.LookupArgs(f.name)
		default:
			args = rpc.ReadArgs(f.fh, op.off, rpcReadLen)
		}
		rec.begin(spRPCCall)
		r.pending[i] = r.client.Call(rpc.NFSProgram, op.proc, args)
		rec.end()
	}
	rec.begin(spWire)
	r.net.RunUntilIdle()
	rec.end()
	rec.begin(spRPCServerPoll)
	r.server.Poll()
	rec.end()
	rec.begin(spWire)
	r.net.RunUntilIdle()
	rec.end()
	rec.begin(spRPCClientPoll)
	r.client.Poll()
	rec.end()

	for i, p := range r.pending {
		if why := w.checkReply(r.asked[i], p); why != "" {
			r.wrong++
			if r.firstBad == "" {
				r.firstBad = why
			}
		}
	}
	r.calls += callsPerRound
	return callsPerRound
}

// checkReply compares one finished call with the seeded file store.
func (w *udpRPC) checkReply(op rpcOp, p *rpc.Pending) string {
	if !p.Done || p.Err != nil {
		return fmt.Sprintf("proc %d: done=%v err=%v", op.proc, p.Done, p.Err)
	}
	f := &w.files[op.file]
	switch op.proc {
	case rpc.ProcGetAttr:
		// Create stamps file i with mtime i+1, which is also its handle.
		a, err := rpc.GetAttrReply(p.Reply)
		if err != nil || a.Size != uint32(len(f.data)) || a.Mtime != f.fh {
			return fmt.Sprintf("GETATTR %s: %+v, %v", f.name, a, err)
		}
	case rpc.ProcLookup:
		fh, err := rpc.LookupReply(p.Reply)
		if err != nil || fh != f.fh {
			return fmt.Sprintf("LOOKUP %s: handle %d, %v", f.name, fh, err)
		}
	default:
		if !bytes.Equal(p.Reply, f.data[op.off:op.off+rpcReadLen]) {
			return fmt.Sprintf("READ %s@%d: %d bytes differ from the file", f.name, op.off, len(p.Reply))
		}
	}
	return ""
}

func (w *udpRPC) window(c cfgID, dur time.Duration, tail *tailHist, rec *spanRec) windowResult {
	r := w.rigs[c]
	return timed(func() int64 {
		return roundLoop(dur, tail, rec, func(rec *spanRec) int64 { return w.round(r, rec) })
	})
}

func (w *udpRPC) verify() (attempted, failed int64, why []string) {
	for c := conv; c < numCfgs; c++ {
		r := w.rigs[c]
		attempted += r.calls
		failed += r.wrong
		if r.wrong > 0 {
			why = append(why, fmt.Sprintf("%s: %d wrong replies, first: %s", cfgNames[c], r.wrong, r.firstBad))
		}
		trouble := append(hostTrouble(cfgNames[c]+" server", r.srv), hostTrouble(cfgNames[c]+" client", r.cli)...)
		if r.client.Retries != 0 || r.client.Timeouts != 0 || r.client.Outstanding() != 0 {
			trouble = append(trouble, fmt.Sprintf("%s: client retried %d, timed out %d, %d outstanding", cfgNames[c], r.client.Retries, r.client.Timeouts, r.client.Outstanding()))
		}
		if r.server.Duplicates != 0 || r.server.Errors != 0 || r.server.Calls != r.calls {
			trouble = append(trouble, fmt.Sprintf("%s: server saw %d calls for %d made, %d duplicates, %d errors", cfgNames[c], r.server.Calls, r.calls, r.server.Duplicates, r.server.Errors))
		}
		failed += int64(len(trouble))
		why = append(why, trouble...)
	}
	return attempted, failed, why
}

func (w *udpRPC) counts(out map[string]float64) {
	layerCounts(out, &w.sets[ldlp], w.rigs[ldlp].calls)
}

// allocsPerCall attributes heap allocations to the rpc layer: Mallocs
// inside the Call, Server.Poll and Client.Poll spans, per call, over a
// few hundred untimed rounds (reading the counter stops the world, so
// this never shares a run with a timing).
func (w *udpRPC) allocsPerCall() float64 {
	r := w.rigs[conv]
	var m0, m1 runtime.MemStats
	var inRPC uint64
	const rounds = 200
	for n := 0; n < rounds; n++ {
		var ps [callsPerRound]*rpc.Pending
		runtime.ReadMemStats(&m0)
		for i := range ps {
			ps[i] = r.client.Call(rpc.NFSProgram, rpc.ProcGetAttr, rpc.GetAttrArgs(w.files[0].fh))
		}
		runtime.ReadMemStats(&m1)
		inRPC += m1.Mallocs - m0.Mallocs
		r.net.RunUntilIdle()
		runtime.ReadMemStats(&m0)
		r.server.Poll()
		runtime.ReadMemStats(&m1)
		inRPC += m1.Mallocs - m0.Mallocs
		r.net.RunUntilIdle()
		runtime.ReadMemStats(&m0)
		r.client.Poll()
		runtime.ReadMemStats(&m1)
		inRPC += m1.Mallocs - m0.Mallocs
		r.calls += callsPerRound
	}
	return float64(inRPC) / (rounds * callsPerRound)
}

func (w *udpRPC) dialsPerSetup() int { return 0 }

func (w *udpRPC) teardown() {
	for c, r := range w.rigs {
		if r != nil {
			r.net.Close()
			w.rigs[c] = nil
		}
	}
}
