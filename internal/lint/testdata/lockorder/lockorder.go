// Fixture for the lockorder analyzer. The test declares
// host.mu=10 < globalMu=20 < pool.mu=30, drain and the deliberately
// absent ghostDrain as sinks, and emitFn as an Emit type.
package lockorder // want `blocking sink lockorder.ghostDrain is required by the lint config but no longer declared`

import "sync"

type emitFn func(v int)

type host struct {
	mu   sync.Mutex
	emit emitFn
}

type pool struct{ mu sync.Mutex }

var globalMu sync.Mutex

func drain() {}

func bad(h *host, p *pool) {
	p.mu.Lock()
	h.mu.Lock() // want `violates the declared lock order`
	drain()     // want `risks deadlock`
	h.emit(1)   // want `emit hand-off`
	h.mu.Unlock()
	p.mu.Unlock()
}

func good(h *host, p *pool) {
	h.mu.Lock()
	globalMu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	globalMu.Unlock()
	h.mu.Unlock()
	drain()
	h.emit(2)
}

func reacquire(h *host) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mu.Lock() // want `violates the declared lock order`
}

func tryBranch(h *host, p *pool) {
	if p.mu.TryLock() {
		h.mu.Lock() // want `violates the declared lock order`
		h.mu.Unlock()
		p.mu.Unlock()
	}
	h.mu.Lock() // the TryLock branch scope has ended: nothing held here
	h.mu.Unlock()
}

func lockHeldViaDefer(h *host) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.emit(3) // want `emit hand-off`
}

// A goroutine body is simulated with its own empty held-set: launching
// it under h.mu is fine, and its internal locking starts fresh.
func spawnsWorker(h *host, p *pool) {
	h.mu.Lock()
	go func() {
		p.mu.Lock()
		p.mu.Unlock()
		drain()
	}()
	h.mu.Unlock()
}

func ignored(h *host) {
	h.mu.Lock()
	//lint:ignore lockorder fixture: emit is a synchronous no-op in this configuration
	h.emit(4)
	h.mu.Unlock()
}
