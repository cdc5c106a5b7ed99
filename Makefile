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
#   make test-386     — the whole suite built for GOARCH=386 (runs on an
#                       amd64 host, no download): the leg where int is 32
#                       bits and the kernel table has only its scalar and
#                       SWAR tiers (dispatch_other.go), so the goldens and
#                       identity tests prove the bits do not depend on
#                       either
#   make fuzz-smoke   — every native Fuzz* target in the tree (found with
#                       `go test -list`, so a new one is picked up by
#                       being written) fuzzed for 3 s each: `go test`
#                       alone only replays the seed corpora
#   make fma-check    — cross-compile internal/dct, internal/codec and
#                       internal/metrics (the kernel table's scalar tiers
#                       of the transform) for arm64 with -gcflags=-S (no
#                       network, no arm64 host needed) and fail on any
#                       fused multiply-add attributed to them: the goldens
#                       pin multiply, round, add, round, and arm64 fuses
#                       x*y + z into one rounding wherever an explicit
#                       float64(x*y) conversion does not forbid it
#   make bench-check  — vet + test the bench/ module (BENCHMARK.json's
#                       harness). It is a module of its own, outside the
#                       root ./..., so only this target notices when a
#                       change here stops it building
#   make bench-smoke  — 1-iteration pass over every benchmark so bench
#                       code cannot rot, the SAD kernel dispatch sanity
#                       check (logs the detected ISA, probes every tier
#                       for bit-identity with scalar), and the
#                       allocation-regression check (fails loudly if
#                       EncodeFrame allocs/frame climb above the ceilings
#                       pinned in internal/codec/alloc_test.go for the
#                       serial, Workers=2 and Pool(2) executors, or
#                       DecodeFrame's above the decoder's). Speed
#                       itself is measured only by bench/run.sh
#                       (BENCHMARK.json)
#   make serve-smoke  — boot vcodecd on a random port, run a verified
#                       vload burst, require a clean SIGTERM drain
#   make cluster-smoke— boot 2 vcodecd + vcodec-gateway on random ports,
#                       verified vload burst, kill one backend mid-run,
#                       burst again (must still verify), clean drain
#   make qos-smoke    — boot vcodecd with a tight QoS loop, byte-verify
#                       the pinned degradation rungs, overload it with a
#                       mixed-priority burst (must degrade, not truncate
#                       or 503), require restore to level 0, clean drain
#   make obs-smoke    — boot vcodecd, run a vload burst, fetch a session's
#                       flight-recorder trace by its trailer ID, assert
#                       the per-frame timeline matches the stream, check
#                       the /metrics histograms, clean drain
#   make ladder-smoke — boot vcodecd, run one /encode?ladder= session,
#                       split the interleaved stream and require every
#                       rung to byte-match a pinned offline
#                       `vcodec encode -ladder` run and decode cleanly,
#                       check the plane-pool counters, clean drain
#   make profile-adaptive — CPU profile of BenchmarkEncodeAdaptiveCells
#                       (adaptive_serial's eight cells through
#                       codec.Encoder, Workers=1, GOMAXPROCS=1, 5 s)
#                       written to prof/adaptive.cpu.prof beside its test
#                       binary; read it with the pprof line it prints. A
#                       report, not a gate, and not part of ci
#   make profile-fullsearch — the same for BenchmarkEncodeFullsearchCells
#                       (fullsearch_serial's three cells), written to
#                       prof/fullsearch.cpu.prof
#   make ci           — every target above except the two profile ones,
#                       in that order
#   make loc          — non-test, non-comment lines of .go and .s files per
#                       package and for the module (bench/ is its own
#                       module and is left out): the count simplicity
#                       changes are measured by. A report, not a gate

GO ?= go

# The X-smoke targets are built by the one %-smoke pattern rule below, so
# they must stay out of .PHONY (make skips implicit rules for phony
# targets); FORCE keeps them, and the bin/% builds, always out of date.
.PHONY: build test sched-one-p test-386 fuzz-smoke fma-check bench-check bench-smoke profile-adaptive profile-fullsearch ci loc FORCE

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

test-386:
	GOARCH=386 $(GO) test ./...

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 3s $$pkg; \
		done; \
	done

fma-check:
	@fused="$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/dct ./internal/codec ./internal/metrics 2>&1 \
		| grep -E 'internal/(dct|codec|metrics)/[^/)]+\)[[:space:]]+FN?M(ADD|SUB)[SD]' || true)"; \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-add in the arm64 build of internal/dct, internal/codec or internal/metrics:"; \
		echo "$$fused"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in the arm64 build of internal/dct, internal/codec, internal/metrics"

bench-check:
	cd bench && $(GO) vet . && $(GO) test .

bench-smoke:
	$(GO) run ./cmd/acbmbench -experiment dispatch
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run 'TestEncodeFrameAllocCeiling|TestDecodeFrameAllocCeiling' -count=1 -v ./internal/codec/
	$(GO) test -run TestRecorderOverheadGuard -count=1 -v ./internal/codec/

profile-adaptive:
	@mkdir -p prof
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '^BenchmarkEncodeAdaptiveCells$$' -benchtime 5s \
		-o prof/repro.test -cpuprofile prof/adaptive.cpu.prof .
	@echo "$(GO) tool pprof -top -focus EncodeFrame prof/repro.test prof/adaptive.cpu.prof"

profile-fullsearch:
	@mkdir -p prof
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '^BenchmarkEncodeFullsearchCells$$' -benchtime 5s \
		-o prof/repro.test -cpuprofile prof/fullsearch.cpu.prof .
	@echo "$(GO) tool pprof -top -focus EncodeFrame prof/repro.test prof/fullsearch.cpu.prof"

# Every binary a smoke script runs, built from this checkout each time (go
# build is itself incremental). .PRECIOUS: as prerequisites of a pattern
# rule they would be deleted as intermediates.
.PRECIOUS: bin/%
bin/%: FORCE
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/$*

# serve-smoke, cluster-smoke, qos-smoke, obs-smoke, ladder-smoke: build the
# daemons and tools, then run scripts/X_smoke.sh against them.
%-smoke: bin/vcodecd bin/vcodec-gateway bin/vload bin/vcodec bin/seqgen FORCE
	BIN=bin sh scripts/$*_smoke.sh

# A line counts unless it is blank or starts with // (after indentation).
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | { total=0; \
		while read -r pkg dir; do \
			n=$$(cat $$(ls $$dir/*.go $$dir/*.s 2>/dev/null | grep -v '_test\.go$$') /dev/null | grep -cvE '^\s*(//|$$)'); \
			printf '%7d  %s\n' $$n $$pkg; total=$$((total + n)); \
		done; printf '%7d  %s\n' $$total 'module (bench/ excluded)'; }

ci: test test-386 fuzz-smoke fma-check bench-check bench-smoke serve-smoke cluster-smoke qos-smoke obs-smoke ladder-smoke

FORCE:
