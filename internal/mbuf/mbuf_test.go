package mbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendAndContiguous(t *testing.T) {
	ResetPool()
	data := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(data)
	m := FromBytes(data)
	defer m.FreeChain()
	if m.PktLen() != 5000 {
		t.Fatalf("PktLen = %d, want 5000", m.PktLen())
	}
	if !bytes.Equal(m.Contiguous(), data) {
		t.Error("contiguous data does not round-trip")
	}
	if m.NumBufs() < 2 {
		t.Errorf("5000 bytes should span multiple clusters, got %d bufs", m.NumBufs())
	}
}

func TestPrependInPlaceAndNewHead(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("payload"))
	// First prepend fits the headroom: same head.
	m2, hdr := m.Prepend(8)
	if m2 != m {
		t.Error("small prepend should reuse the head mbuf")
	}
	copy(hdr, "HDR8####")
	if got := string(m2.Contiguous()); got != "HDR8####payload" {
		t.Errorf("after prepend: %q", got)
	}
	// Exhaust the headroom: a new head must be allocated.
	m3, _ := m2.Prepend(MCLBytes / 2)
	if m3 == m2 {
		t.Error("oversized prepend should allocate a new head")
	}
	if m3.PktLen() != MCLBytes/2+15 {
		t.Errorf("PktLen = %d", m3.PktLen())
	}
	m3.FreeChain()
}

func TestPrependZeroesHeader(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("x"))
	defer m.FreeChain()
	_, hdr := m.Prepend(20)
	for i, b := range hdr {
		if b != 0 {
			t.Fatalf("header byte %d = %#x, want 0", i, b)
		}
	}
}

func TestAdjFrontAndBack(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("aaabbbcccddd"))
	defer m.FreeChain()
	m.Adj(3) // strip "aaa"
	if got := string(m.Contiguous()); got != "bbbcccddd" {
		t.Errorf("after front adj: %q", got)
	}
	m.Adj(-3) // trim "ddd"
	if got := string(m.Contiguous()); got != "bbbccc" {
		t.Errorf("after back adj: %q", got)
	}
	m.Adj(-100) // over-trim empties
	if m.PktLen() != 0 {
		t.Errorf("over-trim left %d bytes", m.PktLen())
	}
}

func TestAdjAcrossMbufBoundaries(t *testing.T) {
	ResetPool()
	big := make([]byte, 3000)
	for i := range big {
		big[i] = byte(i)
	}
	m := FromBytes(big)
	defer m.FreeChain()
	m.Adj(2500)
	want := big[2500:]
	if !bytes.Equal(m.Contiguous(), want) {
		t.Error("front adj across boundary lost data")
	}
}

func TestPullup(t *testing.T) {
	ResetPool()
	// Build a fragmented chain: three small pieces.
	m := FromBytes([]byte("12345"))
	m.next = FromBytes([]byte("67890"))
	m.next.next = FromBytes([]byte("abcde"))
	m2, err := m.Pullup(12)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() < 12 {
		t.Errorf("head has %d contiguous bytes, want >= 12", m2.Len())
	}
	if got := string(m2.Contiguous()); got != "1234567890abcde" {
		t.Errorf("pullup mangled data: %q", got)
	}
	m2.FreeChain()
}

func TestPullupErrors(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("short"))
	defer m.FreeChain()
	if _, err := m.Pullup(100); err == nil {
		t.Error("pullup beyond packet length should fail")
	}
}

func TestPullupNoOpWhenContiguous(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("abcdef"))
	defer m.FreeChain()
	m2, err := m.Pullup(3)
	if err != nil || m2 != m {
		t.Error("pullup within the head should be a no-op")
	}
}

func TestSplit(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("headertailpart"))
	tail := m.Split(6)
	if tail == nil {
		t.Fatal("split returned nil")
	}
	if got := string(m.Contiguous()); got != "header" {
		t.Errorf("head after split: %q", got)
	}
	if got := string(tail.Contiguous()); got != "tailpart" {
		t.Errorf("tail after split: %q", got)
	}
	m.FreeChain()
	tail.FreeChain()
}

func TestSplitAtOrBeyondEnd(t *testing.T) {
	ResetPool()
	m := FromBytes([]byte("abc"))
	defer m.FreeChain()
	if m.Split(3) != nil {
		t.Error("split at end should return nil")
	}
	if m.Split(10) != nil {
		t.Error("split beyond end should return nil")
	}
}

func TestCopyOutWindows(t *testing.T) {
	ResetPool()
	data := make([]byte, 4000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m := FromBytes(data)
	defer m.FreeChain()
	dst := make([]byte, 100)
	if n := m.CopyOut(1950, dst); n != 100 {
		t.Fatalf("copied %d, want 100", n)
	}
	if !bytes.Equal(dst, data[1950:2050]) {
		t.Error("copyout window mismatch")
	}
	// Short copy at the end.
	if n := m.CopyOut(3950, dst); n != 50 {
		t.Errorf("end copy = %d, want 50", n)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	ResetPool()
	m := Get()
	m.Free()
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	m.Free()
}

func TestPoolReuseAndLeakAccounting(t *testing.T) {
	ResetPool()
	m := GetCluster()
	m.FreeChain()
	m2 := GetCluster()
	defer m2.FreeChain()
	s := PoolStats()
	if s.Allocs != 2 || s.Frees != 1 || s.InUse != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBalancedUseLeavesNothingInUse(t *testing.T) {
	ResetPool()
	for i := 0; i < 100; i++ {
		m := FromBytes(make([]byte, 100+i*37))
		m, _ = m.Prepend(40)
		m.Adj(12)
		m.FreeChain()
	}
	if s := PoolStats(); s.InUse != 0 {
		t.Errorf("leak: %+v", s)
	}
}

// Property: any sequence of prepend/append/adj operations preserves the
// expected byte string, modelled against a plain []byte.
func TestChainMatchesSliceModelQuick(t *testing.T) {
	f := func(seed int64) bool {
		ResetPool()
		rng := rand.New(rand.NewSource(seed))
		model := []byte("initial-data")
		m := FromBytes(model)
		model = append([]byte(nil), model...)
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0: // prepend
				n := 1 + rng.Intn(32)
				var hdr []byte
				m, hdr = m.Prepend(n)
				for i := range hdr {
					hdr[i] = byte(rng.Intn(256))
				}
				model = append(append([]byte(nil), hdr...), model...)
			case 1: // append
				n := 1 + rng.Intn(200)
				data := make([]byte, n)
				rng.Read(data)
				m = m.Append(data)
				model = append(model, data...)
			case 2: // trim front
				if len(model) == 0 {
					continue
				}
				n := rng.Intn(len(model))
				m.Adj(n)
				model = model[n:]
			case 3: // trim back
				if len(model) == 0 {
					continue
				}
				n := rng.Intn(len(model))
				m.Adj(-n)
				model = model[:len(model)-n]
			}
			if !bytes.Equal(m.Contiguous(), model) {
				return false
			}
		}
		m.FreeChain()
		return PoolStats().InUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Split(n) + reassembly by append preserves content for any n.
func TestSplitReassembleQuick(t *testing.T) {
	f := func(seed int64, cut uint16) bool {
		ResetPool()
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+rng.Intn(4000))
		rng.Read(data)
		m := FromBytes(data)
		n := int(cut) % (len(data) + 1)
		tail := m.Split(n)
		head := m.Contiguous()
		var whole []byte
		whole = append(whole, head...)
		if tail != nil {
			whole = append(whole, tail.Contiguous()...)
			tail.FreeChain()
		}
		m.FreeChain()
		return bytes.Equal(whole, data) && PoolStats().InUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPrependHeader(b *testing.B) {
	ResetPool()
	m := FromBytes(make([]byte, 512))
	defer m.FreeChain()
	for i := 0; i < b.N; i++ {
		m2, _ := m.Prepend(20)
		m2.Adj(20)
		m = m2
	}
}

func BenchmarkAllocFreeCluster(b *testing.B) {
	ResetPool()
	for i := 0; i < b.N; i++ {
		GetCluster().Free()
	}
}

// Property: CopyOut agrees with slicing the contiguous view, for any
// window over any chain shape.
func TestCopyOutMatchesContiguousQuick(t *testing.T) {
	f := func(seed int64, offSel, lenSel uint16) bool {
		ResetPool()
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+rng.Intn(5000))
		rng.Read(data)
		m := FromBytes(data)
		defer m.FreeChain()
		off := int(offSel) % (len(data) + 10)
		length := int(lenSel) % (len(data) + 10)
		dst := make([]byte, length)
		n := m.CopyOut(off, dst)
		want := 0
		if off < len(data) {
			want = len(data) - off
			if want > length {
				want = length
			}
		}
		if n != want {
			return false
		}
		if n == 0 {
			return true
		}
		return bytes.Equal(dst[:n], data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
