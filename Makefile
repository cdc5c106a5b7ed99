# CI/dev entry points for the ACBM reproduction.
#
#   make build        — gofmt gate (any file `gofmt -l` names fails the
#                       build) + vet + compile everything
#   make test         — full test suite, then the whole tree again under
#                       the race detector (certifies the wavefront
#                       encoder, the multi-session serving layer and
#                       every kernel-tier swap), then sched-one-p
#   make sched-one-p  — the scheduler, engine and session suites on one P
#                       (GOMAXPROCS=1): the wavefront's spin-then-yield
#                       wait, the pool workers' idle spin, the caller
#                       lane's join and the engine's writer hand-off are
#                       only proven free of live-lock where nothing else
#                       can run the row, the task or the writer they wait
#                       for
#   make fuzz-smoke   — every native Fuzz* target in the tree (found with
#                       `go test -list`, so a new one is picked up by
#                       being written) fuzzed for 3 s each: `go test`
#                       alone only replays the seed corpora
#   make fma-check    — cross-compile internal/dct and internal/codec for
#                       arm64 with -gcflags=-S (no network, no arm64 host
#                       needed) and fail on any fused multiply-add
#                       attributed to them: the goldens pin multiply,
#                       round, add, round, and arm64 fuses x*y + z into
#                       one rounding wherever an explicit float64(x*y)
#                       conversion does not forbid it
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

# The X-smoke targets are built by the one %-smoke pattern rule below, so
# they must stay out of .PHONY (make skips implicit rules for phony
# targets); FORCE keeps them, and the bin/% builds, always out of date.
.PHONY: build test sched-one-p fuzz-smoke fma-check bench-check bench-smoke bench-speed bench-rate ratchet-pin bench-serve bench-cluster bench-qos bench-ladder ci FORCE

build:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...

test: build
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) sched-one-p

sched-one-p:
	GOMAXPROCS=1 $(GO) test -count=1 -timeout 5m -run 'Parallel|Pipeline|Pool|PoolIdleWorkersPark|DefaultPoolFixedSize|CallerLaneProgressBehindBusyPool|Observer|Ladder|Wavefront|Engine|Stream|Session|MaxFrames|GoroutineLeak' ./internal/codec/ ./internal/server/

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 3s $$pkg; \
		done; \
	done

fma-check:
	@fused="$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/dct ./internal/codec 2>&1 \
		| grep -E 'internal/(dct|codec)/[^/)]+\)[[:space:]]+FN?M(ADD|SUB)[SD]' || true)"; \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-add in the arm64 build of internal/dct or internal/codec:"; \
		echo "$$fused"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in the arm64 build of internal/dct, internal/codec"

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

# Every binary a smoke script or a bench target runs, built from this
# checkout each time (go build is itself incremental). .PRECIOUS: as
# prerequisites of a pattern rule they would be deleted as intermediates.
.PRECIOUS: bin/%
bin/%: FORCE
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/$*

# serve-smoke, cluster-smoke, qos-smoke, obs-smoke, ladder-smoke: build the
# daemons and tools, then run scripts/X_smoke.sh against them.
%-smoke: bin/vcodecd bin/vcodec-gateway bin/vload bin/vcodec bin/seqgen FORCE
	BIN=bin sh scripts/$*_smoke.sh

bench-serve:
	$(GO) run ./cmd/vload -selfhost -sessions 1,4,8 -frames 30 -size qcif -qp 16 -me acbm -verify -json BENCH_serve.json

bench-cluster:
	$(GO) run ./cmd/vload -chaos -sessions 8 -frames 24 -size qcif -qp 16 -me acbm -backends 2 -json BENCH_cluster.json

bench-qos: bin/vcodecd
	$(GO) run ./cmd/vload -qos -qp 16 -me acbm -daemon bin/vcodecd -json BENCH_qos.json

bench-ladder:
	$(GO) run ./cmd/vload -ladder -json BENCH_ladder.json

ci: test fuzz-smoke fma-check bench-check bench-smoke serve-smoke cluster-smoke qos-smoke obs-smoke ladder-smoke

FORCE:
