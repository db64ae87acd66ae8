package mbuf

const (
	// freeQueueOwners bounds how many distinct owning shards one queue
	// batches for; frees to shards beyond that fall back to direct
	// release. Receive paths free frames from a handful of transmit
	// shards, so collisions are rare in practice.
	freeQueueOwners = 8
	// freeQueueBatch is the number of buffers parked per owner before the
	// queue flushes them to the owner's freelist under one lock.
	freeQueueBatch = 32
)

// FreeQueue batches frees whose owner is another goroutine's shard. A
// cross-shard Free bounces the owner's lock and counter cache lines once
// per buffer; a FreeQueue parks buffers per owning shard and returns a
// whole batch under a single lock acquisition, so the owner's lines are
// touched once per freeQueueBatch buffers instead.
//
// A FreeQueue belongs to exactly one goroutine (it is not safe for
// concurrent use) — in the stack, each receive shard owns one. Buffers
// are marked freed on enqueue, so double frees still panic immediately,
// but they are counted and reusable only when a batch flushes: callers
// must Flush at quiescent points (end of a pump cycle, teardown) before
// trusting Pool.Stats leak checks.
type FreeQueue struct {
	owners [freeQueueOwners]*PoolShard
	count  [freeQueueOwners]int
	batch  [freeQueueOwners][freeQueueBatch]*Mbuf
}

// Free parks one mbuf for its owning shard and returns the next mbuf in
// the chain. When every owner slot is taken by other shards, the buffer
// is released directly instead.
//
//ldlp:hotpath
func (q *FreeQueue) Free(m *Mbuf) *Mbuf {
	if m.freed {
		panic("mbuf: double free")
	}
	next := m.next
	m.freed = true
	m.next = nil
	ps := m.owner
	slot := -1
	for i := 0; i < freeQueueOwners; i++ {
		if q.owners[i] == ps {
			slot = i
			break
		}
		if q.owners[i] == nil {
			q.owners[i] = ps
			slot = i
			break
		}
	}
	if slot < 0 {
		m.release()
		return next
	}
	q.batch[slot][q.count[slot]] = m
	q.count[slot]++
	if q.count[slot] == freeQueueBatch {
		q.flushSlot(slot)
	}
	return next
}

// FreeChain parks every mbuf in the chain.
//
//ldlp:hotpath
func (q *FreeQueue) FreeChain(m *Mbuf) {
	for m != nil {
		m = q.Free(m)
	}
}

// Flush returns every parked buffer to its owning shard. Call at
// quiescent points so leak checks (and the freelists) see the frees.
//
//ldlp:quiescent
func (q *FreeQueue) Flush() {
	for i := range q.owners {
		if q.count[i] > 0 {
			q.flushSlot(i)
		}
	}
}

// flushSlot drains one owner's batch. The whole batch is counted and
// pushed under a single TryLock'd critical section; if the owner's lock
// is contended right now, the batch diverts to the overflow tier with
// atomic accounting, same as a direct release would.
func (q *FreeQueue) flushSlot(i int) {
	ps := q.owners[i]
	n := q.count[i]
	batch := q.batch[i][:n]
	if ps.mu.TryLock() {
		ps.fastFrees += int64(n)
		// The spill set is bounded by the batch itself, so a fixed array
		// keeps this path allocation-free (a plain []*Mbuf here used to
		// heap-allocate once per flush when a freelist hit its cap — the
		// interprocedural hotpathalloc walk caught it).
		var spillArr [freeQueueBatch]*Mbuf
		spilled := 0
		for _, m := range batch {
			if m.cluster {
				ps.fastClusters--
				if len(ps.clust) < shardFreeCap {
					//lint:ignore hotpathalloc freelist is capped at shardFreeCap, so growth is bounded and amortized
					ps.clust = append(ps.clust, m)
					continue
				}
			} else {
				if len(ps.small) < shardFreeCap {
					//lint:ignore hotpathalloc freelist is capped at shardFreeCap, so growth is bounded and amortized
					ps.small = append(ps.small, m)
					continue
				}
			}
			spillArr[spilled] = m
			spilled++
		}
		ps.mu.Unlock()
		if spilled > 0 {
			ov := ps.pool.overflow.Load()
			for _, m := range spillArr[:spilled] {
				ps.overflowPuts.Add(1)
				if m.cluster {
					ov.clust.Put(m)
				} else {
					ov.small.Put(m)
				}
			}
		}
	} else {
		ov := ps.pool.overflow.Load()
		for _, m := range batch {
			ps.slowFrees.Add(1)
			if m.cluster {
				ps.slowClusters.Add(-1)
			}
			ps.overflowPuts.Add(1)
			if m.cluster {
				ov.clust.Put(m)
			} else {
				ov.small.Put(m)
			}
		}
	}
	for j := range batch {
		batch[j] = nil
	}
	q.count[i] = 0
}
