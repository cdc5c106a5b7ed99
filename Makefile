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
#                       lane's join, a session goroutine queued for a pool
#                       slot and the engine's writer hand-off are only
#                       proven free of live-lock where nothing else can
#                       run the row, the task, the slot holder or the
#                       writer they wait for
#   make flake        — the QoS tests 20 times each at GOMAXPROCS 1 and 2,
#                       then the whole gateway suite (failover, retry,
#                       stall watchdog, mid-stream kill) 10 times each at
#                       the same two: a test that passes only on a quiet
#                       host, or only when a timer happens to fire inside
#                       a short session, fails here instead of 2 % of CI
#                       runs
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
#   make fma-check    — cross-compile internal/dct, internal/codec,
#                       internal/metrics (the kernel table's scalar tiers
#                       of the transform) and internal/video (the clip
#                       renderer every claim and golden reads) for arm64
#                       with -gcflags=-S (no network, no arm64 host
#                       needed) and fail on any fused multiply-add
#                       attributed to them: the goldens pin multiply,
#                       round, add, round, and arm64 fuses x*y + z into
#                       one rounding wherever an explicit float64(x*y)
#                       conversion does not forbid it
#   make bench-check  — vet + test the bench/ module (BENCHMARK.json's
#                       harness). It is a module of its own, outside the
#                       root ./..., so only this target notices when a
#                       change here stops it building
#   make claims       — the paper's claims table (experiment.Claims) on
#                       every seed of experiment.Seeds: one PASS/FAIL
#                       line per (row, seed), failing on any FAIL
#                       (6 s on a 2-vCPU host, build cached)
#   make bench-smoke  — the kernel dispatch tests run verbose first, so the
#                       log names the detected CPU features, the registered
#                       tiers and the active one (and fails if dispatch
#                       picked a tier the CPU lacks, or an override
#                       degraded it); then a 1-iteration pass over every
#                       benchmark so bench code cannot rot, and the
#                       allocation-regression check (fails loudly if
#                       EncodeFrame allocs/frame climb above the ceilings
#                       pinned in internal/codec/alloc_test.go for the
#                       serial, Workers=2 and Pool(2) configurations at
#                       QCIF and CIF and for three sessions on one
#                       Pool(2), DecodeFrame's above the decoder's, or
#                       a served QCIF session's objects or bytes per
#                       frame — Y4M ingest, encode and emit through the
#                       handler — above internal/server/alloc_test.go's).
#                       Speed itself is measured only by bench/run.sh
#                       (BENCHMARK.json)
#   make X-smoke      — one row of TestDaemonSmoke (daemon_test.go), which
#                       `go test ./...` runs whole: the real daemons on
#                       random loopback ports, driven by vload and the
#                       CLIs, each row in a fresh environment and ending
#                       in a SIGTERM drain that must exit 0. X is one of
#                         serve   — a verified vload burst
#                         cluster — 2 vcodecd behind vcodec-gateway: a
#                                   verified burst, SIGKILL backend 1, a
#                                   verified -retry-after burst
#                         qos     — the pinned levels 0–3 verified; an
#                                   overload burst that must raise
#                                   vcodecd_qos_degrades_total; then
#                                   qos_level back at 0, restores risen
#                         obs     — the flight recorder's session list and
#                                   a trace by ID; the /metrics histograms
#                         ladder  — /encode?ladder= split per rung and
#                                   byte-equal to `vcodec encode -ladder`,
#                                   each rung decoding; pool counters
#   make profile-adaptive — CPU profile of BenchmarkEncodeAdaptiveCells
#                       (adaptive_serial's eight cells through
#                       codec.Encoder, Workers=1, GOMAXPROCS=1, 5 s)
#                       written to prof/adaptive.cpu.prof beside its test
#                       binary; read it with the pprof line it prints. A
#                       report, not a gate, and not part of ci
#   make profile-fullsearch — the same for BenchmarkEncodeFullsearchCells
#                       (fullsearch_serial's three cells), written to
#                       prof/fullsearch.cpu.prof
#   make profile-serve — the same for BenchmarkEncodePoolSessions
#                       (serve_burst's codec shape: two QCIF ACBM sessions
#                       at once on one Pool(2), Pipeline on) at
#                       GOMAXPROCS=2, written to prof/serve.cpu.prof
#   make ci           — every target above except the three profile ones
#                       and the X-smoke rows, in that order (`make test`
#                       already runs the whole TestDaemonSmoke table)
#   make loc          — non-test, non-comment lines of .go and .s files per
#                       package and for the module (bench/ is its own
#                       module and is left out): the count simplicity
#                       changes are measured by. A report, not a gate

GO ?= go

SMOKES := serve-smoke cluster-smoke qos-smoke obs-smoke ladder-smoke

.PHONY: build test sched-one-p flake test-386 fuzz-smoke fma-check bench-check claims bench-smoke $(SMOKES) profile-adaptive profile-fullsearch profile-serve ci loc

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

flake:
	$(GO) test -count 20 -cpu 1,2 -run 'Qos' ./internal/server
	$(GO) test -count 10 -cpu 1,2 ./internal/gateway

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
	@fused="$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/dct ./internal/codec ./internal/metrics ./internal/video 2>&1 \
		| grep -E 'internal/(dct|codec|metrics|video)/[^/)]+\)[[:space:]]+FN?M(ADD|SUB)[SD]' || true)"; \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-add in the arm64 build of internal/dct, internal/codec, internal/metrics or internal/video:"; \
		echo "$$fused"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in the arm64 build of internal/dct, internal/codec, internal/metrics, internal/video"

bench-check:
	cd bench && $(GO) vet . && $(GO) test .

claims:
	$(GO) run ./cmd/acbmbench -experiment seeds

bench-smoke:
	$(GO) test -run '^TestKernel(ISAFallbackOrder|DispatchSanity)$$' -count=1 -v ./internal/metrics/
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run 'TestEncodeFrameAllocCeiling|TestDecodeFrameAllocCeiling|TestServeFrameAllocCeiling' -count=1 -v ./internal/codec/ ./internal/server/
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

profile-serve:
	@mkdir -p prof
	GOMAXPROCS=2 $(GO) test -run '^$$' -bench '^BenchmarkEncodePoolSessions$$' -benchtime 5s \
		-o prof/repro.test -cpuprofile prof/serve.cpu.prof .
	@echo "$(GO) tool pprof -top prof/repro.test prof/serve.cpu.prof"

$(SMOKES):
	$(GO) test -count=1 -run '^TestDaemonSmoke$$/^$(@:-smoke=)$$' .

# A line counts unless it is blank or starts with // (after indentation).
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | { total=0; \
		while read -r pkg dir; do \
			n=$$(cat $$(ls $$dir/*.go $$dir/*.s 2>/dev/null | grep -v '_test\.go$$') /dev/null | grep -cvE '^\s*(//|$$)'); \
			printf '%7d  %s\n' $$n $$pkg; total=$$((total + n)); \
		done; printf '%7d  %s\n' $$total 'module (bench/ excluded)'; }

ci: test flake test-386 fuzz-smoke fma-check bench-check claims bench-smoke
