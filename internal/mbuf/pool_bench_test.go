package mbuf

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// legacyPool reproduces the allocator this package had before sharding:
// one process-wide mutex around the freelists and the counters, taken on
// every Get and every Free. It exists only as the benchmark baseline the
// sharded pool is measured against.
type legacyPool struct {
	mu     sync.Mutex
	small  []*Mbuf
	allocs int64
	frees  int64
	inUse  int64
}

func (lp *legacyPool) get() *Mbuf {
	lp.mu.Lock()
	var m *Mbuf
	if n := len(lp.small); n > 0 {
		m, lp.small = lp.small[n-1], lp.small[:n-1]
	}
	lp.allocs++
	lp.inUse++
	lp.mu.Unlock()
	if m == nil {
		m = &Mbuf{buf: make([]byte, MSize)}
	}
	m.off = len(m.buf) / 4
	m.length = 0
	m.next = nil
	m.freed = false
	return m
}

func (lp *legacyPool) put(m *Mbuf) {
	if m.freed {
		panic("mbuf: double free")
	}
	m.freed = true
	lp.mu.Lock()
	lp.frees++
	lp.inUse--
	lp.small = append(lp.small, m)
	lp.mu.Unlock()
}

// benchWorkers splits b.N alloc/free pairs across workers goroutines and
// waits for all of them; each worker holds a small batch live at a time
// so the freelists are genuinely exercised.
func benchWorkers(b *testing.B, workers int, loop func(worker, iters int)) {
	prev := runtime.GOMAXPROCS(0)
	if workers > prev {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	for w := 0; w < workers; w++ {
		iters := per
		if w == workers-1 {
			iters = b.N - per*(workers-1)
		}
		wg.Add(1)
		go func(w, iters int) {
			defer wg.Done()
			loop(w, iters)
		}(w, iters)
	}
	wg.Wait()
}

const benchBatch = 8

// BenchmarkPoolAllocFree compares the old global-mutex allocator against
// the sharded pool, serially and with 4 concurrent workers. The sharded
// pool gives each worker its own shard — the contention-free fast path
// every receive shard and host transmit path gets in the netstack.
//
// The separation appears with real cores: 4 workers on 4+ CPUs serialize
// completely on the legacy mutex (its ns/op grows with the worker count)
// while the sharded pool's per-worker shards never meet, so its ns/op
// stays flat. Both allocators now count inside their lock's critical
// section, so per op each pays exactly one lock/unlock pair — the sharded
// pool's earlier per-op atomic counters made it trail the global mutex
// here (the PR 2 scaling regression); TestShardedPoolBeatsGlobalMutexAt4Workers
// guards against that coming back.
func BenchmarkPoolAllocFree(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("global-mutex/workers=%d", workers), func(b *testing.B) {
			lp := &legacyPool{}
			benchWorkers(b, workers, func(_, iters int) {
				var batch [benchBatch]*Mbuf
				for i := 0; i < iters; i += benchBatch {
					n := min(benchBatch, iters-i)
					for j := 0; j < n; j++ {
						batch[j] = lp.get()
					}
					for j := 0; j < n; j++ {
						lp.put(batch[j])
					}
				}
			})
			b.StopTimer()
			if lp.inUse != 0 {
				b.Fatalf("legacy pool leak: %d in use", lp.inUse)
			}
		})
		b.Run(fmt.Sprintf("sharded/workers=%d", workers), func(b *testing.B) {
			pool := NewPool(workers)
			benchWorkers(b, workers, func(w, iters int) {
				ps := pool.Shard(w)
				var batch [benchBatch]*Mbuf
				for i := 0; i < iters; i += benchBatch {
					n := min(benchBatch, iters-i)
					for j := 0; j < n; j++ {
						batch[j] = ps.Get()
					}
					for j := 0; j < n; j++ {
						batch[j].Free()
					}
				}
			})
			b.StopTimer()
			if st := pool.Stats(); st.InUse != 0 {
				b.Fatalf("sharded pool leak: %+v", st)
			}
		})
	}
}
