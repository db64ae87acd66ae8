// Package mbuf implements 4.4BSD-style message buffers: chains of small
// buffers and larger clusters supporting the no-copy header operations
// protocol stacks need (prepend, trim, pull-up, split).
//
// The paper leans on this design twice: §1.1 credits the mbuf system with
// making header stripping and fragment concatenation copy-free, and §3.2
// notes LDLP "requires a buffer management scheme where lower layers hand
// off their buffers to the higher layers" — which mbufs provide, since an
// mbuf chain owns its storage and moves between layer queues by pointer.
//
// Buffers are pooled. A Pool is split into cache-line-padded shards so
// that concurrent allocators (one shard per receive-path worker, one per
// host transmit path) never serialize on a global lock: the fast path is
// a TryLock'd per-shard freelist that never blocks — on the rare
// contention miss, or when a shard's freelist over/underflows, the
// allocation falls through to a pool-wide sync.Pool, which is per-P and
// scales with cores. Accounting piggybacks on the freelist critical
// section (plain adds under the already-held shard lock); only the
// TryLock-miss slow paths pay an atomic, so the fast path costs the same
// two lock RMWs the old global-mutex allocator paid — without sharing
// them.
//
// Every mbuf remembers its owning shard: Free returns it there no matter
// which goroutine frees it, so a chain handed across the stack (or across
// hosts, LDLP's §3.2 ownership transfer) drains back to the pool that
// allocated it and each shard's freelist stays hot. When the freeing
// goroutine is not the owner — a receive shard retiring frames another
// host's transmit shard allocated — a FreeQueue batches the returns so
// the owner's lock and counters are touched once per batch instead of
// once per buffer (see freequeue.go).
//
// The pool is safe for concurrent use; individual mbuf chains are not (a
// chain belongs to one layer at a time — exactly the hand-off discipline
// LDLP wants).
package mbuf

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// MSize is the size of a small mbuf's storage.
	MSize = 256
	// MCLBytes is the size of a cluster mbuf's storage (one page half,
	// like 4.4BSD's 2 KB clusters).
	MCLBytes = 2048
	// shardFreeCap bounds a shard's private freelist; beyond it, freed
	// buffers overflow into the pool-wide sync.Pool (and may be reclaimed
	// by the GC, bounding idle memory).
	shardFreeCap = 512
)

// Stats counts pool activity, for leak detection and tier attribution.
type Stats struct {
	Allocs   int64
	Frees    int64
	InUse    int64
	Clusters int64
	// HeapAllocs counts allocations that missed both the shard freelist
	// and the overflow tier and fell through to the heap — the cold
	// path. Steady-state traffic should hold this flat.
	HeapAllocs int64
	// OverflowGets/OverflowPuts count traffic through the pool-wide
	// sync.Pool tier: hits there mean a shard's private freelist ran
	// dry (or filled up on free) — cross-shard imbalance.
	OverflowGets int64
	OverflowPuts int64
}

// PoolShard is one allocation domain of a Pool. Handles are cheap to
// share; a shard is safe for concurrent use, but callers get the
// contention-free fast path by giving each worker its own shard.
type PoolShard struct {
	pool *Pool
	// mu guards the freelists and the fast-path counters. It is only ever
	// TryLock'd on the alloc/free fast path (never blocks); Stats and
	// Reset take it for real.
	mu    sync.Mutex
	small []*Mbuf
	clust []*Mbuf

	// Fast-path accounting, guarded by mu. Counting inside the freelist
	// critical section costs plain adds on a line the lock already made
	// exclusive — the per-op atomic RMWs these replace were what pushed
	// the sharded allocator behind the old global-mutex pool on
	// BenchmarkPoolAllocFree at workers=4. InUse is derived as
	// allocs-frees rather than kept as a third counter.
	fastAllocs   int64
	fastFrees    int64
	fastClusters int64

	// Slow-path accounting, taken only when TryLock misses (so mu cannot
	// protect it): lock-free atomics.
	slowAllocs   atomic.Int64
	slowFrees    atomic.Int64
	slowClusters atomic.Int64
	heapAllocs   atomic.Int64
	overflowGets atomic.Int64
	overflowPuts atomic.Int64

	// Keep shards off each other's cache lines: the freelists and
	// counters above are the write-hot fields.
	_ [64]byte
}

// overflowPools is the pool-wide sync.Pool tier, swapped wholesale on
// Reset (sync.Pool itself cannot be drained).
type overflowPools struct {
	small sync.Pool
	clust sync.Pool
}

// Pool is a sharded mbuf allocator.
type Pool struct {
	shards   []*PoolShard
	overflow atomic.Pointer[overflowPools]
}

// NewPool creates a pool with the given number of shards (minimum 1).
func NewPool(shards int) *Pool {
	if shards < 1 {
		shards = 1
	}
	p := &Pool{shards: make([]*PoolShard, shards)}
	for i := range p.shards {
		p.shards[i] = &PoolShard{pool: p}
	}
	p.overflow.Store(&overflowPools{})
	return p
}

// NumShards reports the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// Shard returns shard i (mod the shard count, so callers can index by
// worker number without clamping).
func (p *Pool) Shard(i int) *PoolShard {
	if i < 0 {
		i = -i
	}
	return p.shards[i%len(p.shards)]
}

// Stats returns the pool's aggregated allocation counters. It takes each
// shard's lock briefly to read the fast-path counters, so concurrent
// allocators momentarily divert to their slow path; totals stay exact
// because both paths feed the same sums. Buffers parked in a FreeQueue
// count as in use until the queue is flushed.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, ps := range p.shards {
		ps.mu.Lock()
		s.Allocs += ps.fastAllocs
		s.Frees += ps.fastFrees
		s.Clusters += ps.fastClusters
		ps.mu.Unlock()
		s.Allocs += ps.slowAllocs.Load()
		s.Frees += ps.slowFrees.Load()
		s.Clusters += ps.slowClusters.Load()
		s.HeapAllocs += ps.heapAllocs.Load()
		s.OverflowGets += ps.overflowGets.Load()
		s.OverflowPuts += ps.overflowPuts.Load()
	}
	s.InUse = s.Allocs - s.Frees
	return s
}

// Reset discards pooled buffers and zeroes the counters (test hygiene).
// Not safe to run concurrently with allocation.
func (p *Pool) Reset() {
	for _, ps := range p.shards {
		ps.mu.Lock()
		ps.small = nil
		ps.clust = nil
		ps.fastAllocs = 0
		ps.fastFrees = 0
		ps.fastClusters = 0
		ps.mu.Unlock()
		ps.slowAllocs.Store(0)
		ps.slowFrees.Store(0)
		ps.slowClusters.Store(0)
		ps.heapAllocs.Store(0)
		ps.overflowGets.Store(0)
		ps.overflowPuts.Store(0)
	}
	p.overflow.Store(&overflowPools{})
}

// defaultPool backs the package-level Get/GetCluster/FromBytes. At least
// 8 shards even on small machines, so per-worker shard handles stay
// distinct in tests that model more cores than the host has.
var defaultPool = func() *Pool {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return NewPool(n)
}()

// DefaultShard returns shard i of the default pool (mod its shard
// count) — the handle callers thread through per-worker state.
func DefaultShard(i int) *PoolShard { return defaultPool.Shard(i) }

// PoolStats returns a snapshot of the default pool's counters.
func PoolStats() Stats { return defaultPool.Stats() }

// ResetPool discards the default pool's buffers and zeroes the counters
// (test hygiene).
func ResetPool() { defaultPool.Reset() }

// Mbuf is one buffer in a chain. The head of a chain represents a packet;
// PktLen is maintained on the head only.
type Mbuf struct {
	buf     []byte
	off     int
	length  int
	next    *Mbuf
	owner   *PoolShard
	cluster bool
	freed   bool
}

// Get allocates a small mbuf from the default pool with its data region
// positioned mid-buffer so both prepends and appends have room.
func Get() *Mbuf { return defaultPool.shards[0].get(false) }

// GetCluster allocates a cluster mbuf from the default pool.
func GetCluster() *Mbuf { return defaultPool.shards[0].get(true) }

// Get allocates a small mbuf from this shard.
func (ps *PoolShard) Get() *Mbuf { return ps.get(false) }

// GetCluster allocates a cluster mbuf from this shard.
func (ps *PoolShard) GetCluster() *Mbuf { return ps.get(true) }

//ldlp:hotpath
func (ps *PoolShard) get(cluster bool) *Mbuf {
	var m *Mbuf
	counted := false
	// Fast path: this shard's freelist, if the lock is free right now.
	// The alloc is counted inside the critical section (plain adds under
	// the already-held lock) so the fast path pays no extra atomics.
	if ps.mu.TryLock() {
		if cluster {
			if n := len(ps.clust); n > 0 {
				m, ps.clust = ps.clust[n-1], ps.clust[:n-1]
			}
			ps.fastClusters++
		} else {
			if n := len(ps.small); n > 0 {
				m, ps.small = ps.small[n-1], ps.small[:n-1]
			}
		}
		ps.fastAllocs++
		counted = true
		ps.mu.Unlock()
	}
	if !counted {
		ps.slowAllocs.Add(1)
		if cluster {
			ps.slowClusters.Add(1)
		}
	}
	if m == nil {
		// Overflow tier (per-P, scalable), then the heap.
		ov := ps.pool.overflow.Load()
		if cluster {
			m, _ = ov.clust.Get().(*Mbuf)
		} else {
			m, _ = ov.small.Get().(*Mbuf)
		}
		if m != nil {
			ps.overflowGets.Add(1)
		}
	}
	if m == nil {
		ps.heapAllocs.Add(1)
		size := MSize
		if cluster {
			size = MCLBytes
		}
		//lint:ignore hotpathalloc pool-miss cold path: runs only when the freelist and overflow pool are both empty
		m = &Mbuf{buf: make([]byte, size), cluster: cluster}
	}
	m.owner = ps
	// Leave ~25% headroom for prepends.
	m.off = len(m.buf) / 4
	m.length = 0
	m.next = nil
	m.freed = false
	return m
}

// alikeFor sizes a fresh mbuf for n more bytes, allocating from the same
// shard that owns m so chains stay shard-local.
func (m *Mbuf) alikeFor(n int) *Mbuf {
	if n > MSize/2 {
		return m.owner.get(true)
	}
	return m.owner.get(false)
}

// Free releases this single mbuf to its owning shard and returns the next
// mbuf in the chain. Double frees panic: they are ownership bugs.
//
//ldlp:hotpath
func (m *Mbuf) Free() *Mbuf {
	if m.freed {
		panic("mbuf: double free")
	}
	next := m.next
	m.freed = true
	m.next = nil
	m.release()
	return next
}

// release pushes an already-marked-freed mbuf back to its owning shard
// and records the free on whichever counter set matches the path taken
// (fast counters under the shard lock, slow atomics on a TryLock miss).
//
//ldlp:hotpath
func (m *Mbuf) release() {
	ps := m.owner
	if ps.mu.TryLock() {
		ps.fastFrees++
		if m.cluster {
			ps.fastClusters--
		}
		pushed := false
		if m.cluster {
			if len(ps.clust) < shardFreeCap {
				//lint:ignore hotpathalloc freelist is capped at shardFreeCap, so growth is bounded and amortized
				ps.clust = append(ps.clust, m)
				pushed = true
			}
		} else {
			if len(ps.small) < shardFreeCap {
				//lint:ignore hotpathalloc freelist is capped at shardFreeCap, so growth is bounded and amortized
				ps.small = append(ps.small, m)
				pushed = true
			}
		}
		ps.mu.Unlock()
		if pushed {
			return
		}
	} else {
		ps.slowFrees.Add(1)
		if m.cluster {
			ps.slowClusters.Add(-1)
		}
	}
	ov := ps.pool.overflow.Load()
	ps.overflowPuts.Add(1)
	if m.cluster {
		ov.clust.Put(m)
	} else {
		ov.small.Put(m)
	}
}

// FreeChain releases every mbuf in the chain.
//
//ldlp:hotpath
func (m *Mbuf) FreeChain() {
	for m != nil {
		m = m.Free()
	}
}

// Bytes returns the mbuf's current data as a slice (aliasing the
// underlying storage).
func (m *Mbuf) Bytes() []byte { return m.buf[m.off : m.off+m.length] }

// Len returns this mbuf's data length (not the chain's).
func (m *Mbuf) Len() int { return m.length }

// Next returns the next mbuf in the chain, or nil.
func (m *Mbuf) Next() *Mbuf { return m.next }

// PktLen returns the total data length of the chain.
func (m *Mbuf) PktLen() int {
	n := 0
	for cur := m; cur != nil; cur = cur.next {
		n += cur.length
	}
	return n
}

// leading reports the prepend room before the data region.
func (m *Mbuf) leading() int { return m.off }

// trailing reports the append room after the data region.
func (m *Mbuf) trailing() int { return len(m.buf) - m.off - m.length }

// Append copies data onto the end of the chain, extending the last mbuf
// and allocating more as needed. It returns the (unchanged) head.
func (m *Mbuf) Append(data []byte) *Mbuf {
	last := m
	for last.next != nil {
		last = last.next
	}
	for len(data) > 0 {
		room := last.trailing()
		if room == 0 {
			nm := m.alikeFor(len(data))
			nm.off = 0
			last.next = nm
			last = nm
			room = last.trailing()
		}
		n := len(data)
		if n > room {
			n = room
		}
		copy(last.buf[last.off+last.length:], data[:n])
		last.length += n
		data = data[n:]
	}
	return m
}

// Prepend makes room for n bytes in front of the chain's data and returns
// the new head (a fresh mbuf if the current head lacks headroom). The new
// bytes are zeroed and returned for the caller to fill — the no-copy
// header push every layer's output path uses.
//
//ldlp:hotpath
func (m *Mbuf) Prepend(n int) (*Mbuf, []byte) {
	if n <= m.leading() {
		m.off -= n
		m.length += n
		hdr := m.buf[m.off : m.off+n]
		for i := range hdr {
			hdr[i] = 0
		}
		return m, hdr
	}
	nm := m.alikeFor(n)
	if n > len(nm.buf) {
		nm.Free()
		panic(fmt.Sprintf("mbuf: prepend of %d exceeds cluster size", n))
	}
	nm.off = len(nm.buf) - n
	nm.length = n
	nm.next = m
	hdr := nm.buf[nm.off:]
	for i := range hdr {
		hdr[i] = 0
	}
	return nm, hdr
}

// Adj trims data from the chain like 4.4BSD's m_adj: positive n removes
// from the front, negative n removes from the back. Trimming more than
// the chain holds empties it.
func (m *Mbuf) Adj(n int) {
	if n >= 0 {
		for cur := m; cur != nil && n > 0; cur = cur.next {
			if cur.length >= n {
				cur.off += n
				cur.length -= n
				return
			}
			n -= cur.length
			cur.off += cur.length
			cur.length = 0
		}
		return
	}
	n = -n
	total := m.PktLen()
	if n >= total {
		n = total
	}
	keep := total - n
	for cur := m; cur != nil; cur = cur.next {
		if keep >= cur.length {
			keep -= cur.length
			continue
		}
		cur.length = keep
		keep = 0
	}
}

// errPullup is Pullup's one failure: the chain is shorter than the
// bytes asked for, or they exceed a cluster.
var errPullup = errors.New("mbuf: pullup beyond packet length or cluster size")

// Pullup rearranges the chain so its first n bytes are contiguous in the
// head mbuf, like m_pullup — decoders need contiguous headers. It returns
// the new head, or an error if the chain is shorter than n or n exceeds a
// cluster.
func (m *Mbuf) Pullup(n int) (*Mbuf, error) {
	if n <= m.length {
		return m, nil
	}
	if n > m.PktLen() || n > MCLBytes {
		return m, errPullup
	}
	head := m.alikeFor(n)
	head.off = 0
	// Gather n bytes from the chain into the new head.
	rest := m
	for head.length < n && rest != nil {
		take := n - head.length
		if take > rest.length {
			take = rest.length
		}
		copy(head.buf[head.length:], rest.Bytes()[:take])
		head.length += take
		rest.off += take
		rest.length -= take
		if rest.length == 0 {
			rest = rest.Free()
		}
	}
	head.next = rest
	return head, nil
}

// Split divides the chain at byte offset n: the receiver keeps the first
// n bytes, and the remainder is returned as a new chain (nil if n >= the
// packet length). Storage is copied only at the split point's partial
// mbuf.
func (m *Mbuf) Split(n int) *Mbuf {
	if n >= m.PktLen() {
		return nil
	}
	cur := m
	for cur != nil && n > cur.length {
		n -= cur.length
		cur = cur.next
	}
	if cur == nil {
		return nil
	}
	if n == cur.length {
		tail := cur.next
		cur.next = nil
		return tail
	}
	// Partial mbuf: copy the tail part into a fresh mbuf.
	tailLen := cur.length - n
	nm := m.alikeFor(tailLen)
	nm.off = 0
	copy(nm.buf, cur.Bytes()[n:])
	nm.length = tailLen
	nm.next = cur.next
	cur.length = n
	cur.next = nil
	return nm
}

// CopyOut copies length bytes starting at offset off out of the chain
// into dst, returning the number of bytes copied (short if the chain
// ends).
func (m *Mbuf) CopyOut(off int, dst []byte) int {
	copied := 0
	for cur := m; cur != nil && copied < len(dst); cur = cur.next {
		if off >= cur.length {
			off -= cur.length
			continue
		}
		n := copy(dst[copied:], cur.Bytes()[off:])
		copied += n
		off = 0
	}
	return copied
}

// FlipBit flips one bit of the chain's packet data, walking to the mbuf
// that holds it. bit must be below PktLen()*8; a bit beyond the chain
// flips nothing. This is link corruption's whole effect on a buffer (a
// single flip is always caught by the Internet checksum downstream).
func (m *Mbuf) FlipBit(bit int) {
	off := bit / 8
	for cur := m; cur != nil; cur = cur.next {
		if off < cur.length {
			cur.buf[cur.off+off] ^= 1 << (bit % 8)
			return
		}
		off -= cur.length
	}
}

// Contiguous returns the chain's full contents as one slice, copying only
// if the chain has more than one mbuf.
func (m *Mbuf) Contiguous() []byte {
	if m.next == nil {
		return m.Bytes()
	}
	//lint:ignore hotpathalloc multi-buffer chains only; single-buffer frames return the existing window without copying
	out := make([]byte, m.PktLen())
	m.CopyOut(0, out)
	return out
}

// FromBytes builds a chain from this shard holding a copy of data, using
// clusters for bulk.
//
//ldlp:hotpath
func (ps *PoolShard) FromBytes(data []byte) *Mbuf {
	var m *Mbuf
	if len(data) > MSize/2 {
		m = ps.get(true)
	} else {
		m = ps.get(false)
	}
	m.off = len(m.buf) / 4
	if len(data) <= m.trailing() {
		copy(m.buf[m.off:], data)
		m.length = len(data)
		return m
	}
	m.length = 0
	return m.Append(data)
}

// FromBytes builds a chain from the default pool holding a copy of data.
func FromBytes(data []byte) *Mbuf { return defaultPool.shards[0].FromBytes(data) }

// NumBufs counts the mbufs in the chain.
func (m *Mbuf) NumBufs() int {
	n := 0
	for cur := m; cur != nil; cur = cur.next {
		n++
	}
	return n
}
