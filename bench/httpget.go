package main

import (
	"fmt"
	"time"

	"ldlp/internal/httpd"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

// httpGet is the http_get workload: one httpd.Server and eight
// persistent client connections; each round every client requests a
// seeded path and every response body is checked. A message is one
// completed request.
type httpGet struct {
	p      params
	paths  []string
	bodies map[string]string
	picks  []uint8 // seeded path choice per request, walked cyclically

	rigs [numCfgs]*httpRig
	sets [numCfgs]hostSet
}

type httpRig struct {
	net      *netstack.Net
	cli, srv *netstack.Host
	server   *httpd.Server
	clients  [httpClients]*httpd.Client
	pos      int
	requests int64
	wrong    int64
	firstBad string
}

const (
	httpClients = 8
	httpPaths   = 64
	httpPort    = 80
)

func newHTTPGet(p params) *httpGet {
	w := &httpGet{p: p, bodies: map[string]string{}}
	rng := newRNG(p.seed, "http_get paths and picks")
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789 "
	// Body sizes step evenly from 64 to 512 bytes and every run of 64
	// requests asks for each path once: the seed chooses contents and
	// order, never how many bytes a request moves.
	for i := 0; i < httpPaths; i++ {
		body := make([]byte, 64+i*448/(httpPaths-1))
		for j := range body {
			body[j] = letters[rng.Intn(len(letters))]
		}
		path := fmt.Sprintf("/doc/%02d.html", i)
		w.paths = append(w.paths, path)
		w.bodies[path] = string(body)
	}
	w.picks = make([]uint8, 0, 4096)
	for len(w.picks) < cap(w.picks) {
		for _, i := range rng.Perm(httpPaths) {
			w.picks = append(w.picks, uint8(i))
		}
	}
	return w
}

func (w *httpGet) setup() error {
	mbuf.ResetPool() // see tcpRx.setup
	for c := conv; c < numCfgs; c++ {
		opts := netstack.DefaultOptions(disciplines[c])
		r := &httpRig{net: netstack.NewNet()}
		r.cli = r.net.AddHost("client", ipA, opts)
		r.srv = r.net.AddHost("server", ipB, opts)
		var err error
		r.server, err = httpd.NewServer(r.srv, httpPort, func(path string) (string, bool) {
			body, ok := w.bodies[path]
			return body, ok
		})
		if err != nil {
			return err
		}
		if err := takeDials(httpClients); err != nil {
			return err
		}
		for i := range r.clients {
			r.clients[i] = httpd.Dial(r.cli, r.srv, httpPort)
		}
		// Eight pending handshakes fit the listener's backlog of 16; the
		// server accepts them all in its first Poll.
		r.net.RunUntilIdle()
		r.server.Poll()
		for i, cl := range r.clients {
			if !cl.Connected() {
				return fmt.Errorf("%s: client %d did not connect", cfgNames[c], i)
			}
		}
		w.rigs[c] = r
		w.sets[c].mark(r.cli, r.srv)
		for i := 0; i < w.p.warmRounds(); i++ {
			w.round(r, nil)
		}
	}
	return nil
}

// round sends one GET per client, pumps, serves, pumps the responses
// back and checks every body.
func (w *httpGet) round(r *httpRig, rec *spanRec) int64 {
	first := r.pos
	for _, cl := range r.clients {
		path := w.paths[w.picks[r.pos]]
		if r.pos++; r.pos == len(w.picks) {
			r.pos = 0
		}
		rec.begin(spHTTPGet)
		cl.Get(path)
		rec.end()
	}
	rec.begin(spWire)
	r.net.RunUntilIdle()
	rec.end()
	rec.begin(spHTTPServerPoll)
	r.server.Poll()
	rec.end()
	rec.begin(spWire)
	r.net.RunUntilIdle()
	rec.end()
	for i, cl := range r.clients {
		rec.begin(spHTTPClientPoll)
		cl.Poll()
		rec.end()
		want := w.bodies[w.paths[w.picks[(first+i)%len(w.picks)]]]
		resp, ok := cl.Next()
		if !ok || resp.Status != "200 OK" || resp.Body != want {
			r.wrong++
			if r.firstBad == "" {
				r.firstBad = fmt.Sprintf("client %d: ok=%v status %q, %d body bytes for %d wanted", i, ok, resp.Status, len(resp.Body), len(want))
			}
		}
	}
	r.requests += httpClients
	return httpClients
}

func (w *httpGet) window(c cfgID, dur time.Duration, tail *tailHist, rec *spanRec) windowResult {
	r := w.rigs[c]
	return timed(func() int64 {
		return roundLoop(dur, tail, rec, func(rec *spanRec) int64 { return w.round(r, rec) })
	})
}

func (w *httpGet) verify() (attempted, failed int64, why []string) {
	for c := conv; c < numCfgs; c++ {
		r := w.rigs[c]
		attempted += r.requests
		failed += r.wrong
		if r.wrong > 0 {
			why = append(why, fmt.Sprintf("%s: %d wrong responses, first: %s", cfgNames[c], r.wrong, r.firstBad))
		}
		trouble := append(hostTrouble(cfgNames[c]+" server", r.srv), hostTrouble(cfgNames[c]+" client", r.cli)...)
		s := r.server
		if s.Requests != r.requests || s.Responses != r.requests || s.NotFound != 0 || s.BadRequests != 0 {
			trouble = append(trouble, fmt.Sprintf("%s: server counted %d requests, %d responses, %d not found, %d bad for %d sent", cfgNames[c], s.Requests, s.Responses, s.NotFound, s.BadRequests, r.requests))
		}
		failed += int64(len(trouble))
		why = append(why, trouble...)
	}
	return attempted, failed, why
}

func (w *httpGet) counts(out map[string]float64) {
	layerCounts(out, &w.sets[ldlp], w.rigs[ldlp].requests)
}

func (w *httpGet) dialsPerSetup() int { return int(numCfgs) * httpClients }

func (w *httpGet) teardown() {
	for c, r := range w.rigs {
		if r != nil {
			r.net.Close()
			w.rigs[c] = nil
		}
	}
}
