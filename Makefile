# CI/dev entry points for the ACBM reproduction.
#
#   make build        — gofmt gate (any file `gofmt -l` names fails the
#                       build) + vet + compile everything
#   make test         — full test suite, then the whole tree again under
#                       the race detector (certifies the wavefront
#                       encoder, the multi-session serving layer and
#                       every kernel-tier swap), then the scheduler
#                       suites on one P (GOMAXPROCS=1): the wavefront's
#                       spin-then-yield wait is only proven free of
#                       live-lock where nothing else can run the row it
#                       waits for
#   make bench-check  — vet + test the bench/ module (BENCHMARK.json's
#                       harness). It is a module of its own, outside the
#                       root ./..., so only this target notices when a
#                       change here stops it building
#   make bench-smoke  — 1-iteration pass over every benchmark so bench
#                       code cannot rot, the SAD kernel dispatch sanity
#                       check (logs the detected ISA, probes every tier
#                       for bit-identity with scalar), the perf ratchet
#                       (serial ns/frame vs BENCH_ratchet.json — fails
#                       on a step regression), a quick rate-experiment
#                       run (compiles and exercises the frame-lag
#                       controller on every push), and the
#                       allocation-regression check (fails loudly if
#                       EncodeFrame allocs/frame climb above the ceilings
#                       pinned in internal/codec/alloc_test.go for the
#                       serial, Workers=2 and Pool(2) executors)
#   make bench-speed  — regenerate BENCH_speed.json (ns/frame, fps,
#                       points/block for each searcher × worker count)
#   make ratchet-pin  — re-pin BENCH_ratchet.json baselines on this host
#                       (run after a deliberate perf change, commit the
#                       result)
#   make bench-rate   — regenerate BENCH_rate.json (kbps tracking error +
#                       ns/frame for rate-controlled encodes: serial vs
#                       workers vs pipelined vs shared pool, per searcher)
#   make serve-smoke  — boot vcodecd on a random port, run a verified
#                       vload burst, require a clean SIGTERM drain
#   make bench-serve  — regenerate BENCH_serve.json (throughput and
#                       first-packet/per-frame latency × session count)
#   make cluster-smoke— boot 2 vcodecd + vcodec-gateway on random ports,
#                       verified vload burst, kill one backend mid-run,
#                       burst again (must still verify), clean drain
#   make bench-cluster— regenerate BENCH_cluster.json (chaos scenarios
#                       against a self-hosted gateway topology, every
#                       session byte-verified)
#   make qos-smoke    — boot vcodecd with a tight QoS loop, byte-verify
#                       the pinned degradation rungs, overload it with a
#                       mixed-priority burst (must degrade, not truncate
#                       or 503), require restore to level 0, clean drain
#   make bench-qos    — regenerate BENCH_qos.json (per-level cost table +
#                       overload ramp under the closed-loop controller)
#   make obs-smoke    — boot vcodecd, run a vload burst, fetch a session's
#                       flight-recorder trace by its trailer ID, assert
#                       the per-frame timeline matches the stream, check
#                       the /metrics histograms, clean drain
#   make ladder-smoke — boot vcodecd, run one /encode?ladder= session,
#                       split the interleaved stream and require every
#                       rung to byte-match a pinned offline
#                       `vcodec encode -ladder` run and decode cleanly,
#                       check the plane-pool counters, clean drain
#   make bench-ladder — regenerate BENCH_ladder.json (simulcast ladder
#                       vs N independent encodes: wall-clock speedup,
#                       per-rung points/MB with and without cross-layer
#                       seeding, rung-0 bit-identity gate)

GO ?= go

.PHONY: build test bench-check bench-smoke bench-speed bench-rate ratchet-pin serve-smoke bench-serve cluster-smoke bench-cluster qos-smoke bench-qos obs-smoke ladder-smoke bench-ladder ci

build:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...

test: build
	$(GO) test ./...
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Parallel|Pipeline|Pool|Ladder|Wavefront' ./internal/codec/ ./internal/server/

bench-check:
	cd bench && $(GO) vet . && $(GO) test .

bench-smoke:
	$(GO) run ./cmd/acbmbench -experiment dispatch
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/acbmbench -experiment ratchet -frames 30
	$(GO) run ./cmd/acbmbench -experiment rate -frames 6 -size sqcif
	$(GO) test -run TestEncodeFrameAllocCeiling -count=1 -v ./internal/codec/
	$(GO) test -run TestRecorderOverheadGuard -count=1 -v ./internal/codec/

bench-speed:
	$(GO) run ./cmd/acbmbench -experiment speed -frames 30 -json BENCH_speed.json

ratchet-pin:
	$(GO) run ./cmd/acbmbench -experiment ratchet -frames 30 -update-ratchet

bench-rate:
	$(GO) run ./cmd/acbmbench -experiment rate -frames 30 -json BENCH_rate.json

serve-smoke:
	mkdir -p bin
	$(GO) build -o bin/vcodecd ./cmd/vcodecd
	$(GO) build -o bin/vload ./cmd/vload
	BIN=bin sh scripts/serve_smoke.sh

bench-serve:
	$(GO) run ./cmd/vload -selfhost -sessions 1,4,8 -frames 30 -size qcif -qp 16 -me acbm -verify -json BENCH_serve.json

cluster-smoke:
	mkdir -p bin
	$(GO) build -o bin/vcodecd ./cmd/vcodecd
	$(GO) build -o bin/vcodec-gateway ./cmd/vcodec-gateway
	$(GO) build -o bin/vload ./cmd/vload
	BIN=bin sh scripts/cluster_smoke.sh

bench-cluster:
	$(GO) run ./cmd/vload -chaos -sessions 8 -frames 24 -size qcif -qp 16 -me acbm -backends 2 -json BENCH_cluster.json

qos-smoke:
	mkdir -p bin
	$(GO) build -o bin/vcodecd ./cmd/vcodecd
	$(GO) build -o bin/vload ./cmd/vload
	BIN=bin sh scripts/qos_smoke.sh

bench-qos:
	mkdir -p bin
	$(GO) build -o bin/vcodecd ./cmd/vcodecd
	$(GO) run ./cmd/vload -qos -qp 16 -me acbm -daemon bin/vcodecd -json BENCH_qos.json

obs-smoke:
	mkdir -p bin
	$(GO) build -o bin/vcodecd ./cmd/vcodecd
	$(GO) build -o bin/vload ./cmd/vload
	BIN=bin sh scripts/obs_smoke.sh

ladder-smoke:
	mkdir -p bin
	$(GO) build -o bin/vcodecd ./cmd/vcodecd
	$(GO) build -o bin/vcodec ./cmd/vcodec
	$(GO) build -o bin/seqgen ./cmd/seqgen
	BIN=bin sh scripts/ladder_smoke.sh

bench-ladder:
	$(GO) run ./cmd/vload -ladder -json BENCH_ladder.json

ci: test bench-check bench-smoke serve-smoke cluster-smoke qos-smoke obs-smoke ladder-smoke
