package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

var (
	ipSrv = layers.IPAddr{10, 7, 1, 1}
	ipCli = layers.IPAddr{10, 7, 1, 2}
)

const rpcPort = 2049

func deploy(t *testing.T, d core.Discipline) (*netstack.Net, *Server, *FileServer, *Client) {
	t.Helper()
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("srv", ipSrv, netstack.DefaultOptions(d))
	hc := n.AddHost("cli", ipCli, netstack.DefaultOptions(d))
	srv, err := NewServer(hs, rpcPort)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFileServer(srv)
	cli, err := NewClient(hc, 900, ipSrv, rpcPort)
	if err != nil {
		t.Fatal(err)
	}
	return n, srv, fs, cli
}

func pump(n *netstack.Net, srv *Server, cli *Client) {
	for i := 0; i < 10; i++ {
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		cli.Poll()
		if cli.Outstanding() == 0 {
			return
		}
	}
}

func call(t *testing.T, n *netstack.Net, srv *Server, cli *Client, prog, proc uint32, args []byte) *Pending {
	t.Helper()
	p := cli.Call(prog, proc, args)
	pump(n, srv, cli)
	if !p.Done {
		t.Fatalf("call %d/%d never completed", prog, proc)
	}
	return p
}

func (m message) encode() []byte {
	return append(appendHeader(nil, m.xid, m.typ, m.prog, m.proc, m.status), m.payload...)
}

func TestMessageCodecRoundTrip(t *testing.T) {
	f := func(xid, prog, proc, status uint32, payload []byte) bool {
		m := message{xid: xid, typ: msgCall, prog: prog, proc: proc, status: status, payload: payload}
		got, err := decodeMessage(m.encode())
		return err == nil && got.xid == xid && got.prog == prog &&
			got.proc == proc && got.status == status && bytes.Equal(got.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMessageCodecRejectsGarbage(t *testing.T) {
	if _, err := decodeMessage([]byte{1, 2, 3}); err == nil {
		t.Error("short message accepted")
	}
	bad := message{typ: 9}.encode()
	if _, err := decodeMessage(bad); err == nil {
		t.Error("bad type accepted")
	}
}

func TestNullProc(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	p := call(t, n, srv, cli, NFSProgram, ProcNull, nil)
	if p.Err != nil || p.Status != StatusOK {
		t.Errorf("NULL: %v status %d", p.Err, p.Status)
	}
}

func TestLookupGetAttrRead(t *testing.T) {
	n, srv, fs, cli := deploy(t, core.LDLP)
	fh := fs.Create("motd", []byte("small messages rule"))
	_ = fh

	p := call(t, n, srv, cli, NFSProgram, ProcLookup, LookupArgs("motd"))
	got, err := LookupReply(p.Reply)
	if err != nil || got == 0 {
		t.Fatalf("lookup: fh=%d err=%v", got, err)
	}

	p = call(t, n, srv, cli, NFSProgram, ProcGetAttr, GetAttrArgs(got))
	attr, err := GetAttrReply(p.Reply)
	if err != nil || attr.Size != 19 {
		t.Fatalf("getattr: %+v err=%v", attr, err)
	}

	p = call(t, n, srv, cli, NFSProgram, ProcRead, ReadArgs(got, 6, 8))
	if string(p.Reply) != "messages" {
		t.Errorf("read window = %q", p.Reply)
	}
	if s := mbuf.PoolStats(); s.InUse != 0 {
		t.Errorf("mbuf leak: %+v", s)
	}
}

func TestLookupMissingFile(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	p := call(t, n, srv, cli, NFSProgram, ProcLookup, LookupArgs("nope"))
	fh, err := LookupReply(p.Reply)
	if err != nil || fh != 0 {
		t.Errorf("missing file: fh=%d err=%v", fh, err)
	}
}

func TestWriteExtendsAndOverwrites(t *testing.T) {
	n, srv, fs, cli := deploy(t, core.Conventional)
	fh := fs.Create("log", []byte("aaaa"))
	p := call(t, n, srv, cli, NFSProgram, ProcWrite, WriteArgs(fh, 2, []byte("BBBB")))
	nw, err := WriteReply(p.Reply)
	if err != nil || nw != 4 {
		t.Fatalf("write: n=%d err=%v", nw, err)
	}
	p = call(t, n, srv, cli, NFSProgram, ProcRead, ReadArgs(fh, 0, 100))
	if string(p.Reply) != "aaBBBB" {
		t.Errorf("after write: %q", p.Reply)
	}
}

func TestUnknownProgAndProc(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	p := call(t, n, srv, cli, 424242, 0, nil)
	if p.Status != StatusProgUnavail {
		t.Errorf("unknown prog status = %d", p.Status)
	}
	p = call(t, n, srv, cli, NFSProgram, 99, nil)
	if p.Status != StatusProcUnavail {
		t.Errorf("unknown proc status = %d", p.Status)
	}
}

func TestGarbageArgs(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	p := call(t, n, srv, cli, NFSProgram, ProcLookup, []byte{1})
	if p.Status != StatusGarbageArgs {
		t.Errorf("garbage args status = %d", p.Status)
	}
	p = call(t, n, srv, cli, NFSProgram, ProcGetAttr, GetAttrArgs(999))
	if p.Status != StatusSystemErr {
		t.Errorf("stale handle status = %d", p.Status)
	}
}

func TestDuplicateRequestCacheMakesWriteRetrySafe(t *testing.T) {
	// The classic: the WRITE executes, the REPLY is lost, the client
	// retries with the same XID. The duplicate-request cache must answer
	// from the cache — the write must not apply twice.
	n, srv, fs, cli := deploy(t, core.Conventional)
	cli.RetryInterval = 0.3
	fh := fs.Create("append.log", nil)

	lost := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipCli && lost == 0 {
			lost++
			return true // drop the first reply
		}
		return false
	}
	p := cli.Call(NFSProgram, ProcWrite, WriteArgs(fh, 0, []byte("once")))
	pump(n, srv, cli)
	if p.Done {
		t.Fatal("completed despite lost reply")
	}
	n.Tick(0.35)
	cli.Tick()
	pump(n, srv, cli)
	if !p.Done || p.Err != nil {
		t.Fatalf("retry failed: %v / %v", p.Done, p.Err)
	}
	if srv.Duplicates != 1 {
		t.Errorf("server duplicates = %d, want 1", srv.Duplicates)
	}
	if fs.Writes != 1 {
		t.Errorf("write executed %d times, want exactly 1", fs.Writes)
	}
	if cli.Retries != 1 {
		t.Errorf("client retries = %d, want 1", cli.Retries)
	}
}

func TestDupCacheEviction(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	srv.DupCacheSize = 4
	for i := 0; i < 10; i++ {
		call(t, n, srv, cli, NFSProgram, ProcNull, nil)
	}
	if len(srv.dupCache) > 4 || len(srv.dupRing) > 4 {
		t.Errorf("dup cache grew beyond bound: %d/%d", len(srv.dupCache), len(srv.dupRing))
	}
}

func TestTimeoutWhenServerGone(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	cli.RetryInterval = 0.2
	cli.MaxAttempts = 2
	n.Loss = func(dst layers.IPAddr, data []byte) bool { return dst == ipSrv }
	p := cli.Call(NFSProgram, ProcNull, nil)
	for i := 0; i < 5; i++ {
		n.Tick(0.25)
		cli.Tick()
		pump(n, srv, cli)
	}
	if !p.Done || p.Err == nil {
		t.Fatalf("black-holed call: done=%v err=%v", p.Done, p.Err)
	}
	if cli.Timeouts != 1 {
		t.Errorf("timeouts = %d", cli.Timeouts)
	}
}

func TestStringCodec(t *testing.T) {
	b := putString(nil, "hello")
	s, rest, err := getString(b)
	if err != nil || string(s) != "hello" || len(rest) != 0 {
		t.Errorf("string codec: %q %v %v", s, rest, err)
	}
	if _, _, err := getString([]byte{0, 0, 0, 9, 'x'}); err == nil {
		t.Error("overlong string accepted")
	}
	if _, _, err := getString([]byte{1}); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestFileServerNames(t *testing.T) {
	_, _, fs, _ := deploy(t, core.Conventional)
	fs.Create("b", nil)
	fs.Create("a", nil)
	names := fs.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func BenchmarkNFSGetAttr(b *testing.B) {
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("srv", ipSrv, netstack.DefaultOptions(core.Conventional))
	hc := n.AddHost("cli", ipCli, netstack.DefaultOptions(core.Conventional))
	srv, _ := NewServer(hs, rpcPort)
	fs := NewFileServer(srv)
	cli, _ := NewClient(hc, 900, ipSrv, rpcPort)
	fh := fs.Create("f", make([]byte, 100))
	args := GetAttrArgs(fh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := cli.Call(NFSProgram, ProcGetAttr, args)
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		cli.Poll()
		if !p.Done {
			b.Fatal("stuck")
		}
	}
}

// roundTripAllocs runs one procedure's round trip, args encoding
// included, after enough calls to fill the dup cache and warm the
// queues, and returns its heap allocations per call. check vets the last
// reply.
func roundTripAllocs(t *testing.T, d core.Discipline, proc uint32, args func(fh uint32) []byte, check func(fh uint32, reply []byte) error) float64 {
	t.Helper()
	n, srv, fs, cli := deploy(t, d)
	defer n.Close()
	fh := fs.Create("f", bytes.Repeat([]byte("sixteen bytes..."), 64))
	var last *Pending
	roundTrip := func() {
		last = cli.Call(NFSProgram, proc, args(fh))
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		cli.Poll()
	}
	for i := 0; i < 2*srv.DupCacheSize; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	if !last.Done || last.Err != nil {
		t.Fatalf("[%v] proc %d: done %v, err %v", d, proc, last.Done, last.Err)
	}
	if err := check(fh, last.Reply); err != nil {
		t.Fatalf("[%v] proc %d reply: %v", d, proc, err)
	}
	return allocs
}

// A GETATTR round trip costs two heap allocations, the args and the
// Pending, whose own buffer holds the encoded call and then the reply.
// The server builds the reply in a buffer it owns and copies it into a
// recycled dup-cache buffer; the netstack under it allocates nothing.
// Pinned as a count; there is no timing gate.
func TestGetAttrRoundTripAllocations(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		allocs := roundTripAllocs(t, d, ProcGetAttr, GetAttrArgs, func(_ uint32, reply []byte) error {
			if a, err := GetAttrReply(reply); err != nil || a.Size != 1024 {
				return fmt.Errorf("%+v, %v", a, err)
			}
			return nil
		})
		if allocs > 2 {
			t.Errorf("[%v] %v allocations per GETATTR round trip, want <= 2", d, allocs)
		}
	}
}

// LOOKUP costs the same two: the name is looked up in place, and the
// handle fits the Pending's buffer.
func TestLookupRoundTripAllocations(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		allocs := roundTripAllocs(t, d, ProcLookup, func(uint32) []byte { return LookupArgs("f") }, func(fh uint32, reply []byte) error {
			if got, err := LookupReply(reply); err != nil || got != fh {
				return fmt.Errorf("handle %d, %v", got, err)
			}
			return nil
		})
		if allocs > 2 {
			t.Errorf("[%v] %v allocations per LOOKUP round trip, want <= 2", d, allocs)
		}
	}
}

// A 512-byte READ adds a third, the caller's copy of the data, which
// does not fit the Pending's buffer.
func TestReadRoundTripAllocations(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		allocs := roundTripAllocs(t, d, ProcRead, func(fh uint32) []byte { return ReadArgs(fh, 16, 512) }, func(_ uint32, reply []byte) error {
			if want := bytes.Repeat([]byte("sixteen bytes..."), 32); !bytes.Equal(reply, want) {
				return fmt.Errorf("%d bytes, not the file's", len(reply))
			}
			return nil
		})
		if allocs > 3 {
			t.Errorf("[%v] %v allocations per READ round trip, want <= 3", d, allocs)
		}
	}
}

// Once the dup cache has wrapped, replies live in recycled buffers. A
// retransmitted WRITE must still get the bytes of its own first reply,
// not those of whatever the server built since, and must not run again.
func TestDupCacheRecycledReplyIsIdentical(t *testing.T) {
	n, srv, fs, cli := deploy(t, core.Conventional)
	srv.DupCacheSize = 4
	cli.RetryInterval = 0.3
	fh := fs.Create("append.log", nil)
	for i := 0; i < 3*srv.DupCacheSize; i++ { // same-size replies: every eviction recycles
		call(t, n, srv, cli, NFSProgram, ProcWrite, WriteArgs(fh, uint32(i), []byte{'a'}))
	}
	const udp = layers.EthernetLen + layers.IPv4MinLen + layers.UDPLen
	var replies [][]byte
	n.Loss = func(dst layers.IPAddr, frame []byte) bool {
		if dst != ipCli {
			return false
		}
		replies = append(replies, bytes.Clone(frame[udp:]))
		return len(replies) == 1 // lose the WRITE's first reply
	}
	p := cli.Call(NFSProgram, ProcWrite, WriteArgs(fh, 0, []byte("once")))
	pump(n, srv, cli)
	writes := fs.Writes
	// Another call overwrites the server's reply buffer before the retry.
	call(t, n, srv, cli, NFSProgram, ProcGetAttr, GetAttrArgs(fh))
	n.Tick(0.35)
	cli.Tick()
	pump(n, srv, cli)
	if !p.Done || p.Err != nil {
		t.Fatalf("retried WRITE: done %v, err %v", p.Done, p.Err)
	}
	if len(replies) != 3 || !bytes.Equal(replies[0], replies[2]) {
		t.Fatalf("cached reply differs from the first:\n%x", replies)
	}
	if fs.Writes != writes || srv.Duplicates != 1 {
		t.Errorf("writes %d -> %d, duplicates %d; want no re-execution and one duplicate", writes, fs.Writes, srv.Duplicates)
	}
}

// A retry puts the same bytes on the wire as the first attempt, and the
// server answers it from the dup cache without running WRITE again.
func TestRetryResendsIdenticalBytes(t *testing.T) {
	n, srv, fs, cli := deploy(t, core.Conventional)
	cli.RetryInterval = 0.3
	fh := fs.Create("append.log", nil)
	var calls [][]byte
	n.Loss = func(dst layers.IPAddr, frame []byte) bool {
		if dst == ipSrv {
			calls = append(calls, bytes.Clone(frame))
			return false
		}
		return len(calls) == 1 // lose the reply to the first attempt only
	}
	args := WriteArgs(fh, 0, []byte("once"))
	p := cli.Call(NFSProgram, ProcWrite, args)
	copy(args, "scribbled over after Call") // Call took its copy
	pump(n, srv, cli)
	n.Tick(0.35)
	cli.Tick()
	pump(n, srv, cli)
	if !p.Done || p.Err != nil {
		t.Fatalf("retry failed: done=%v err=%v", p.Done, p.Err)
	}
	if len(calls) != 2 {
		t.Fatalf("%d call frames reached the server link, want 2", len(calls))
	}
	// The IP ID differs between the two frames (and with it the header
	// checksum); everything from the UDP header on must not.
	udp := layers.EthernetLen + layers.IPv4MinLen
	if !bytes.Equal(calls[0][udp:], calls[1][udp:]) {
		t.Errorf("retry differs from the first attempt:\n%x\n%x", calls[0][udp:], calls[1][udp:])
	}
	if srv.Duplicates != 1 || fs.Writes != 1 {
		t.Errorf("duplicates = %d, writes = %d; want 1 and 1", srv.Duplicates, fs.Writes)
	}
	if n, err := WriteReply(p.Reply); err != nil || n != 4 {
		t.Errorf("WRITE reply = %d, %v", n, err)
	}
}

// The key ring evicts in arrival order, exactly as the FIFO it replaced:
// at DupCacheSize calls every one is cached, one more evicts the oldest
// and only the oldest.
func TestDupCacheEvictsOldestFirst(t *testing.T) {
	n, srv, _, cli := deploy(t, core.Conventional)
	srv.DupCacheSize = 4
	key := func(xid int) dupKey { return dupKey{client: ipCli, port: 900, xid: uint32(xid)} }
	cached := func() (xids []int) {
		for x := 1; x <= 16; x++ {
			if _, ok := srv.dupCache[key(x)]; ok {
				xids = append(xids, x)
			}
		}
		return xids
	}
	for i := 0; i < srv.DupCacheSize; i++ {
		call(t, n, srv, cli, NFSProgram, ProcNull, nil)
	}
	if got := fmt.Sprint(cached()); got != "[1 2 3 4]" {
		t.Errorf("after DupCacheSize calls the cache holds %s, want [1 2 3 4]", got)
	}
	call(t, n, srv, cli, NFSProgram, ProcNull, nil)
	if got := fmt.Sprint(cached()); got != "[2 3 4 5]" {
		t.Errorf("after one more the cache holds %s, want [2 3 4 5]", got)
	}
	for i := 0; i < 6; i++ { // wrap the ring
		call(t, n, srv, cli, NFSProgram, ProcNull, nil)
	}
	if got := fmt.Sprint(cached()); got != "[8 9 10 11]" {
		t.Errorf("after 11 calls the cache holds %s, want [8 9 10 11]", got)
	}
}

// The wire bytes of one call and its reply per procedure, from the UDP
// payload on (xid, type, prog, proc, status, then args or result): the
// encoding is fixed, whatever the code that builds it.
func TestWireGolden(t *testing.T) {
	n, srv, fs, cli := deploy(t, core.Conventional)
	fh := fs.Create("motd", []byte("small messages rule"))
	var payloads [][]byte
	n.Loss = func(_ layers.IPAddr, frame []byte) bool {
		payloads = append(payloads, bytes.Clone(frame[layers.EthernetLen+layers.IPv4MinLen+layers.UDPLen:]))
		return false
	}
	for _, c := range []struct {
		proc        uint32
		args        []byte
		call, reply string
	}{
		{ProcNull, nil,
			"0000000100000000000186a30000000000000000",
			"0000000100000001000186a30000000000000000"},
		{ProcGetAttr, GetAttrArgs(fh),
			"0000000200000000000186a3000000010000000000000001",
			"0000000200000001000186a300000001000000000000001300000001"},
		{ProcLookup, LookupArgs("motd"),
			"0000000300000000000186a30000000400000000000000046d6f7464",
			"0000000300000001000186a3000000040000000000000001"},
		{ProcRead, ReadArgs(fh, 6, 8),
			"0000000400000000000186a30000000600000000000000010000000600000008",
			"0000000400000001000186a300000006000000006d65737361676573"},
		{ProcWrite, WriteArgs(fh, 19, []byte("!")),
			"0000000500000000000186a30000000800000000000000010000001321",
			"0000000500000001000186a3000000080000000000000001"},
		{ProcGetAttr, GetAttrArgs(99),
			"0000000600000000000186a3000000010000000000000063",
			"0000000600000001000186a30000000100000005"}, // stale handle: StatusSystemErr
	} {
		payloads = nil
		call(t, n, srv, cli, NFSProgram, c.proc, c.args)
		if len(payloads) != 2 {
			t.Fatalf("proc %d: %d datagrams on the wire, want 2", c.proc, len(payloads))
		}
		if got := fmt.Sprintf("%x", payloads[0]); got != c.call {
			t.Errorf("proc %d call:\n got %s\nwant %s", c.proc, got, c.call)
		}
		if got := fmt.Sprintf("%x", payloads[1]); got != c.reply {
			t.Errorf("proc %d reply:\n got %s\nwant %s", c.proc, got, c.reply)
		}
	}
}

// Tick retransmits overdue calls in xid order, so which retries a seeded
// loss model drops is a function of the seed alone. Each of twenty fresh
// clients gets eight overdue calls; map-ordered retries would come out
// shuffled in some of them.
func TestTickRetransmitsInXIDOrder(t *testing.T) {
	const udp = layers.EthernetLen + layers.IPv4MinLen + layers.UDPLen
	for run := 0; run < 20; run++ {
		n, srv, _, cli := deploy(t, core.Conventional)
		var xids []uint32
		n.Loss = func(dst layers.IPAddr, frame []byte) bool {
			xids = append(xids, binary.BigEndian.Uint32(frame[udp:]))
			return true // the server never answers
		}
		for i := 0; i < 8; i++ {
			cli.Call(NFSProgram, ProcNull, nil)
		}
		pump(n, srv, cli)
		xids = nil
		n.Tick(cli.RetryInterval + 0.05)
		cli.Tick()
		pump(n, srv, cli)
		if got := fmt.Sprint(xids); got != "[1 2 3 4 5 6 7 8]" {
			t.Fatalf("client %d retransmitted xids %s, want [1 2 3 4 5 6 7 8]", run, got)
		}
		n.Close()
	}
}
