// Fixture for the quiescence analyzer. The test configures
// Roots = ["quiescence.worker", "quiescence.ghostWorker"],
// Registrars = {"quiescence.register": "quiescence.engine",
// "quiescence.ghostRegister": "quiescence.ghostEngine"}, and
// Required = ["quiescence.tickRequired", "quiescence.ghostTick"];
// no handler is named, and the ghost* names are deliberately absent, so
// the stale-name guard fires once per kind on the package clause below.
package quiescence // want `quiescent function quiescence.ghostTick is required by the lint config but no longer declared` `rx-worker root quiescence.ghostWorker is required by the lint config but no longer declared` `registrar quiescence.ghostRegister is required by the lint config but no longer declared` `registrar's invoker quiescence.ghostEngine is required by the lint config but no longer declared`

var shared int

// worker is the rx-worker root: everything it reaches statically may
// run while packets are in flight.
func worker() {
	for i := 0; i < 4; i++ {
		engine()
		directHelper()
	}
}

// engine invokes its handler through a stored function value, invisible
// to the resolver; the test config declares register as the registrar
// engine calls back for.
func engine() { stored() }

var stored func()

func register(h func()) { stored = h }

func wire() { register(handler) }

// handler is reached only through the edge derived from wire's call.
func handler() { helper() }

func helper() { reachableTick() }

func directHelper() { directTick() }

// reachableTick is tagged quiescent but the worker reaches it through
// the derived engine edge — the violation, reported with the chain.
//
//ldlp:quiescent
func reachableTick() { // want `statically reachable from rx-worker root quiescence.worker \(chain: quiescence.worker -> quiescence.engine -> quiescence.handler -> quiescence.helper -> quiescence.reachableTick\)`
	shared++
}

// directTick is reached through plain resolved calls.
//
//ldlp:quiescent
func directTick() { // want `statically reachable from rx-worker root quiescence.worker`
	shared = 0
}

// safeTick runs only between pumps: nothing the worker reaches calls
// it, so the tag holds.
//
//ldlp:quiescent
func safeTick() { shared = 0 }

// tickRequired is in Required but lost its tag.
func tickRequired() {} // want `runs only at pump quiescence and must carry //ldlp:quiescent`

// pump may call quiescent functions freely: reachability is judged from
// the worker roots alone.
func pump() {
	safeTick()
	tickRequired()
}
