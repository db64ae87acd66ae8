// Webserver: the conclusion's scenario — "LDLP may improve performance
// for Internet WWW servers, where the data transfer unit is 512 bytes or
// less in most circumstances." A tiny HTTP/0.9-flavoured server
// (internal/httpd) runs over TCP-lite on the in-memory netstack; many
// clients issue small pipelined requests concurrently, and the server
// host's receive path runs under either discipline so the batching
// behaviour is visible.
package main

import (
	"fmt"
	"strings"

	"ldlp"
	"ldlp/internal/core"
	"ldlp/internal/httpd"
	"ldlp/internal/netstack"
)

const (
	serverPort = 80
	nClients   = 24
	nRequests  = 4 // per client
)

// documents are the small responses the paper's conclusion assumes.
var documents = map[string]string{
	"/":      "<html>welcome to the small-message web</html>",
	"/paper": "Blackwell, Speeding up Protocols for Small Messages, SIGCOMM 96",
	"/ldlp":  strings.Repeat("batching is blocking for protocols. ", 8),
}

func main() {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		run(d)
	}
}

func run(d core.Discipline) {
	n := ldlp.NewNet()
	serverHost := n.AddHost("server", ldlp.IPAddr{192, 168, 0, 1}, netstack.DefaultOptions(d))
	srv, err := httpd.NewServer(serverHost, serverPort, func(path string) (string, bool) {
		body, ok := documents[path]
		return body, ok
	})
	if err != nil {
		panic(err)
	}

	var clients []*httpd.Client
	for i := 0; i < nClients; i++ {
		h := n.AddHost(fmt.Sprintf("client%d", i),
			ldlp.IPAddr{192, 168, 1, byte(i + 1)}, netstack.DefaultOptions(d))
		clients = append(clients, httpd.Dial(h, serverHost, serverPort))
	}
	n.RunUntilIdle()
	srv.Poll() // accept everyone

	paths := []string{"/", "/paper", "/ldlp", "/missing"}
	responses, notFound := 0, 0
	for round := 0; round < nRequests; round++ {
		// All clients fire in the same instant: a burst of small messages
		// at the server — LDLP's home turf.
		for i, c := range clients {
			c.Get(paths[(i+round)%len(paths)])
		}
		for pumpRound := 0; pumpRound < 6; pumpRound++ {
			n.RunUntilIdle()
			srv.Poll()
			n.RunUntilIdle()
			for _, c := range clients {
				c.Poll()
			}
		}
		n.Tick(0.01) // flush delayed ACKs

		drain := func() {
			for _, c := range clients {
				for {
					r, ok := c.Next()
					if !ok {
						break
					}
					responses++
					if strings.HasPrefix(r.Status, "404") {
						notFound++
					}
				}
			}
		}
		drain()
		if round == nRequests-1 {
			// Settle: retransmission timers and delayed ACKs flush any
			// responses still in flight.
			for settle := 0; settle < 10 && responses < nClients*nRequests; settle++ {
				n.Tick(0.25)
				srv.Poll()
				n.RunUntilIdle()
				for _, c := range clients {
					c.Poll()
				}
				drain()
			}
		}
	}

	s := serverHost.Snapshot()
	c := s.Counters
	tx, _ := s.Telemetry.Hist("tx-batch")
	fmt.Printf("[%v] %d requests -> %d responses (%d not-found); "+
		"fast-path %d/%d segments; ACKs %d (delayed-ack rule); "+
		"largest rx batch %d, largest tx batch %d\n",
		d, nClients*nRequests, responses, notFound,
		c.TCPFastPath, c.TCPFastPath+c.TCPSlowPath, c.AcksSent,
		s.Stack.LargestBatch, tx.Max)
	if responses != nClients*nRequests {
		panic("lost responses")
	}
}
