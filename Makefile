# Reproduction of Blackwell, "Speeding up Protocols for Small Messages"
# (SIGCOMM '96). Pure Go, standard library only.

GO ?= go

.PHONY: all build vet lint test test-short test-race chaos chaos-smoke fleet-smoke fuzz bench-smoke bench-full trace-smoke report examples clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt (any file it would rewrite fails the target),
# go vet, and the repo's own analyzer suite (ldlpvet), which enforces
# mbuf ownership balance, the zero-alloc //ldlp:hotpath contract,
# atomics-only counter access, lock ordering, and per-seed determinism.
# Exits non-zero on any unexplained finding.
# Extra ldlpvet flags, e.g. `make lint LDLPVET_FLAGS="-v -github"`.
LDLPVET_FLAGS ?=

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/ldlpvet $(LDLPVET_FLAGS) ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over everything; the concurrency stress tests
# (sharded engine, sharded netstack) are written to be meaningful here.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'Sharded|Drain' ./internal/core

# Chaos soak: the full impairment-preset x discipline x shard matrix
# under the race detector, plus the standalone driver across both
# disciplines (it exits non-zero on any invariant violation).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/netstack ./internal/sscop
	$(GO) run ./cmd/chaos -shards 4
	$(GO) run ./cmd/chaos -discipline conventional

# CI-sized smoke: -short trims the soak matrix to three presets.
chaos-smoke:
	$(GO) test -race -short -count=1 -run 'TestChaos' ./internal/netstack ./internal/sscop
	$(GO) run ./cmd/chaos -mix all -shards 4

# Fleet smoke: the event-driven simulator's test suite (which holds the
# byte-identical replay checks, TestReplayByteIdentical and
# TestFleetEventLogReplays), then a 64-node threshold-gossip run over
# lossy links with invariant checking (exits non-zero on any violation).
fleet-smoke:
	$(GO) test -short -count=1 ./internal/fleet/...
	$(GO) run ./cmd/ldlpsim -fleet-nodes 64 -fleet-steps 3

# Short fuzzing pass, ten seconds on every FuzzXxx target in the tree.
# The targets are discovered (packages with a `func Fuzz`, then
# `go test -list`), so a new fuzzer runs here and in CI without an edit.
# Minimizing a new input is capped at 2 s (go's default is 60 s, and its
# byte-subset pass is quadratic in the input, so a kilobyte of frames
# would otherwise spend the whole pass minimizing one input).
fuzz:
	@for dir in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$($(GO) test -list '^Fuzz' $$dir | grep '^Fuzz'); do \
			echo "fuzz $$dir $$target"; \
			$(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=10s -fuzzminimizetime=2s $$dir || exit 1; \
		done; \
	done

# Repository-benchmark smoke: all five BENCHMARK.json workloads at
# -quick size (about a second once built). Every correctness check of
# the full run is intact — replies, bodies, step histories, drop
# counters, the fast-path count, mbufs out at quiescence — and a
# workload that fails any of them exits non-zero.
BENCH_WORKLOADS = tcp_rx_k1 tcp_rx_k14 udp_rpc http_get fleet_gossip

bench-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		$(GO) run ./bench --workload $$w -quick || exit 1; \
	done

# Flight-recorder smoke: run a short Poisson workload through
# cmd/ldlptrace at both load points and validate the emitted Chrome
# trace (well-formed JSON, per-track monotonic timestamps). The
# trace.json artifact opens directly in ui.perfetto.dev.
trace-smoke:
	$(GO) run ./cmd/ldlptrace -out trace.json -load both -duration 0.02 -check

# Every per-package Benchmark* function (component micro-benchmarks; no
# paper artifact is a benchmark — those are ldlpreport's registry), the
# million-flow accept-path scale run included (slow; numbers, not
# smoke). The zero-allocation gates these paths carry are tests —
# Test{TCP,UDP}ReceivePathAllocFree and
# TestAcceptScaleSteadyStateAllocFree in internal/netstack — and run
# under plain `go test`.
bench-full:
	$(GO) test -bench=. -benchmem -timeout=30m ./...

# Regenerate every table/figure/ablation into results/ (add PAPER=1 for
# the full 100-seed methodology). CI reruns it and fails on any diff.
report:
	$(GO) run ./cmd/ldlpreport -out results $(if $(PAPER),-paper)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/signalling
	$(GO) run ./examples/webserver
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/dnsburst
	$(GO) run ./examples/nfsclient

clean:
	$(GO) clean ./...
