// Package repro is a from-scratch Go reproduction of "A High Quality/Low
// Computational Cost Technique for Block Matching Motion Estimation"
// (López, Callicó, López, Sarmiento — DATE 2005): the ACBM adaptive-cost
// motion estimation algorithm, the full/predictive block-matching
// algorithms it hybridises, an H.263-style codec substrate, synthetic
// stand-ins for the paper's test sequences, and harnesses that regenerate
// every table and figure of the evaluation.
//
// The library lives under internal/ (see DESIGN.md for the substitutions
// and the design invariants); runnable entry points are the examples/
// programs and the cmd/acbmbench, cmd/seqgen, cmd/vcodec, cmd/vcodecd,
// cmd/vcodec-gateway and cmd/vload tools. The benchmarks in bench_test.go
// regenerate the paper's Table 1 and Figures 4-6, and the paper's claims
// are the rows of one table, experiment.Claims: `go test` checks each row
// on its own seed, `acbmbench -experiment seeds` (make claims) every
// shape row on eight seeds.
//
// # Performance architecture
//
// The encode hot path is optimised at several layers, none of which
// change a single output bit (the golden bitstream tests and the parallel
// equivalence tests in internal/codec pin this):
//
//   - internal/frame pads every reference/reconstruction plane with a
//     replicated apron sized to the motion range plus the half-pel margin
//     (padded stride, Pix windowed into the padded buffer). The apron is
//     replicated exactly once per frame, when a reconstruction becomes
//     the prediction reference (refreshReference), so
//     every position a legal candidate or a chroma-derived vector can
//     reach is backed by real edge-replicated memory and no hot loop
//     branches on the frame border.
//   - Motion compensation reads the reference plane and writes the frame
//     being reconstructed, and touches nothing else: codec.predictInterMB
//     fetches a macroblock's prediction — one 16×16 luma block and one
//     8×8 block per chroma plane — straight
//     into the reconstruction through metrics.PredictBlock, an entry of
//     the kernel table below. Its definition and scalar tier is
//     frame.HalfPelBlock: one block at its half-pel anchor from the padded
//     plane, a row copy for the integer phase, one word-parallel pass over
//     one (b, c) or two (d) source rows otherwise; the amd64 tier is a row
//     move, PAVGB or the word-widened diagonal per 16-byte row. An uncoded
//     block is finished the moment it is predicted; a coded one reads its
//     prediction back from the same coordinates. A kernel writes exactly
//     its w×h window — the neighbouring bytes belong to macroblocks other
//     wavefront lanes own — and the codec holds no prediction buffer and
//     no half-pel state between macroblocks. The phase-split,
//     tile-by-tile half-pel view (frame.Interpolated: b/c/d phase planes
//     filled frame.TileSize² samples at a time on first touch, behind an
//     atomic per-tile claim) is still there, reached only through
//     PhaseRect/At: the tests use it as the materialised oracle
//     HalfPelBlock and PredictBlock are differentially pinned against,
//     and bench/ probes it as a layer. Nothing on the encode or decode
//     path touches a tile.
//   - internal/metrics runs the kernels the encoder calls (IntraSAD, the
//     half-pel ring, the best-of-candidates scans, the residual energies,
//     the prediction fetch and the transform passes) through a
//     runtime-dispatched kernel table with four tiers: scalar (the
//     differential-test reference), SWAR (8 pixels per uint64 load, split
//     into 16-bit lanes), and on amd64 two Go-assembly tiers — SSE2
//     (PSADBW sums 16 absolute differences per instruction into qword
//     lanes; the rings work in words because no PAVGB composition
//     reproduces the diagonal (a+b+c+d+2)>>2) and AVX2 (16-wide
//     macroblocks packed two rows per YMM register). CPUID feature
//     detection (OSXSAVE + XGETBV before any AVX2 claim) picks the best
//     tier at init; VCODEC_SAD_KERNEL=scalar|swar|sse2|avx2 overrides
//     it, and SetKernelISA swaps tiers at runtime for tests. The dispatch
//     contract is that every tier is bit-identical, so the active ISA can
//     never change an encoded bit, only ns/frame; the per-ISA
//     differential+fuzz suite and the encoder bitstream-identity test pin
//     this, and TestKernelDispatchSanity (run verbose by bench-smoke)
//     names the host's tier. Single-probe SAD (SAD, SADCapped,
//     SADHalfPelPlane*), which only the fast searchers, RC-FSBM and
//     per-point studies call, is not in the table: it runs SWAR on every
//     host. Half-pel candidates are evaluated by fused kernels
//     (SADHalfPelPlane, and the SADHalfPelRing batch that scores all 8
//     neighbour phases in one pass) that apply the H.263 bilinear
//     rounding inside the difference loop, directly against the integer
//     reference plane: searcher refinement never materialises half-pel
//     storage at all, and neither does motion compensation (above).
//   - Reconstruction frames, half-pel phase planes and their buffers
//     recycle through size-bucketed pools (one bucket per exact
//     dimensions × apron class), so concurrent vcodecd sessions at mixed
//     resolutions stop thrashing each other's buffers. A reference frame
//     is retired to its pool at the frame hand-off — the first point
//     where both of its readers (the next frame's analysis and the
//     previous frame's PSNR statistics) are provably done; the steady
//     state is ~10 heap allocations per encoded frame, and `make
//     bench-smoke` fails if the pinned ceiling regresses.
//   - search.FSBM scans candidates centre-outward ("spiral", sorted by L1
//     then raster order), so the running minimum is near-final after the
//     first ring; the visit order is chosen so the winner is identical to
//     the raster scan's under the shorter-vector tie-break. For
//     macroblocks the whole scan is one kernel call: the ±Range window
//     clipped to the frame is a rectangle (its area is the Points
//     count), and metrics.SADBest walks the cached spiral table inside
//     it and returns the first strictly-best candidate. That kernel's
//     contract defines only the winner — in ascending-L1 order the
//     tie-break reduces to strict <, so a tier may abandon a losing
//     candidate as soon as any lower bound on its SAD reaches the running
//     minimum without changing index or SAD — which lets the AVX2 tier
//     keep the cur block in eight YMM registers for the call, test the
//     running minimum only after rows 8 and 16, and skip unread every
//     candidate whose 4×4-sum successive-elimination bound has already
//     reached it (most of a ±15 window on camera content; Points, the
//     window's area, do not change). The per-candidate Legal/SADCapped loop survives where each
//     candidate's exact SAD is the product (Input.Collect), for
//     non-16×16 blocks, and as the test oracle.
//   - search.PBM — which ACBM runs on every macroblock — pays per block
//     the same way. One generator gathers the zero, causal spatial and
//     temporal (or ladder-seed) predictors (mvfield.AppendPredictors is
//     the one statement of Fig. 2's neighbourhood), snaps them to full
//     pel, clamps them into the ±Range ∩ frame rectangle computed once,
//     and drops repeats — one bit each in a visited bitmap over the ±15
//     window, a list scan for wider ranges — as packed metrics.Offsets in
//     first-seen order.
//     For macroblocks the set, stable-sorted by L1, is one
//     metrics.SADBestFew call (SADBest's kernels and winner-only
//     contract; the ≤ 16-entry list travels by value, so it stays on the
//     caller's stack and PBM stays stateless and shared by every lane).
//     The integer descent is a sequential walk — each probe is taken from
//     the current best, which moves inside a step — so it is not batched:
//     a probe is a rectangle compare, a visited-set lookup and a
//     one-candidate call with the bar at bestSAD+1. The half-pel ring
//     serves edge macroblocks too, reading the reference's apron and
//     keeping only the legal slots. The per-point
//     fold over the same generator serves Collect and other block
//     shapes, and TestPBMBatchMatchesPerPoint/FuzzPBMBatch
//     hold both to a from-the-paper reference.
//   - internal/bitstream runs word-at-a-time: the Writer gathers bits in
//     a 64-bit accumulator and the entropy layer packs whole syntax
//     elements — Exp-Golomb codes, (run, level, last) TCOEF events, MVD
//     pairs — into single WriteBits calls. The original per-bit engine is
//     kept as the differential/fuzz-test reference.
//   - internal/dct restructures the separable float DCT around hoisted
//     row conversion and contiguous basis tables, with a DC-only inverse
//     fast path; every reordering preserves the reference kernels'
//     floating-point operation order, so int32(math.Round) outputs are
//     bit-identical (enforced by differential tests against the kept
//     reference kernels). Every product that feeds a sum is wrapped in an
//     explicit float64 conversion, the language's barrier against fusing
//     x*y + z into one rounding: arm64 would fuse, amd64 does not, and the
//     pinned streams are the unfused ones (`make fma-check` cross-compiles
//     and greps).
//   - The inter residual path matches its traffic, and pays per
//     macroblock. At the paper's operating points nearly every inter
//     block quantises to nothing, so after predicting the macroblock in
//     place codec.codeInterBlock takes each block's residual energy on
//     plane bytes — source against reconstruction at the same
//     coordinates, whatever the vectors were (metrics.SSE, one more entry
//     of the kernel table: PMADDWD squares on amd64) — and compares it
//     with dct.InterZeroBound(Qp) = k²−k, k = 2·Qp + Qp/2 the edge of
//     QuantizeInter's dead zone. The DCT basis is orthonormal, so no
//     coefficient can exceed the residual's L2 norm: at or below the
//     bound every coefficient rounds inside the dead zone, the block is
//     provably uncoded, and it is already reconstructed. A block above
//     the bound takes the forward transform's row pass straight from the
//     two byte blocks (metrics.ResidualRows, a table entry too: one
//     float64 lane per output coefficient, separate multiply and add in
//     the scalar code's order, so the seventy-two results carry the same
//     bits on every tier), metrics.ColQuant (dct.QuantizeInterRows on the
//     kernel table) applies the same bound per coefficient column and
//     runs the column pass only where a level can be non-zero, and only a
//     block that keeps a level — about one in a hundred — is dequantised,
//     inverse-transformed, added to its prediction and clamped, in one
//     more table call (metrics.InverseAdd, which intra blocks and the
//     decoder take too). Every exit is exact, not a heuristic — bitstreams are
//     byte-identical with and without it — and codec.FrameStats reports
//     the traffic per frame (GatedBlocks / TransformedBlocks /
//     RowOnlyBlocks / CodedBlocks). The per-frame PSNR statistics sum
//     their squared error through the same SSE kernel.
//   - internal/codec analyses macroblocks on a barrier-free wavefront
//     (codec.Config.Workers): motion estimation, mode decision,
//     transform/quantisation and reconstruction run a macroblock row per
//     lane, each row publishing its progress with an atomic store and
//     trailing the row above by two macroblocks, because the predictive
//     searchers read only the left/up-left/up/up-right motion-field
//     neighbours. Each lane owns a forked searcher (search.Forker;
//     core.ACBM is not concurrency-safe and merges its stats additively
//     in Join), scratch is recycled through sync.Pools, and entropy
//     coding stays serial — bitstreams are bit-identical for every
//     worker count.
//   - codec.Encoder is the one session engine — frame in, framed bytes
//     out — behind every driver: per frame it checks the session is
//     live, applies a pending QoS actuation, analyses, hands the job to
//     phase 2 and runs the frame hand-off (reference retirement, rate
//     control). Two choices are fixed at construction: the framing (one
//     contiguous stream, or an independently parseable packet per frame
//     through an emit callback — codec.EncodeStream) and where phase 2
//     runs. With codec.Config.Pipeline it runs on one writer goroutine
//     fed over an unbuffered channel, overlapping the serial entropy
//     coding of frame n with the analysis of frame n+1: analysis of n+1
//     needs only frame n's reconstruction and motion field, both final
//     when frame n's analysis ends, while the entropy coder — whose
//     (arithmetic) state spans frames — consumes jobs strictly in frame
//     order. One frame is in flight; output stays byte-identical for
//     every worker count, framing and placement.
//   - Rate and complexity control are frame-lag controllers that compose
//     with all of the above instead of forcing the encoder serial. The
//     TargetKbps quantiser servo decides frame n+1's Qp at frame n's
//     hand-off — from the actual sizes of frames 0..n-1 plus a predicted
//     size for the frame in flight (bits-per-coefficient model over the
//     worker-invariant analysis results) — and corrects the prediction
//     one frame later. core.Budgeted freezes its α/γ thresholds at frame
//     start, accounts consumed search points per worker fork, merges
//     them additively in Join and servos once per frame. Both therefore
//     keep the wavefront, the pipeline and the shared pool fully
//     parallel, with bitstreams pinned byte-identical across Workers ×
//     Pipeline × Pool by golden -race tests.
//
// Speed is measured in one place: bench/ (its own module, declared by
// BENCHMARK.json) runs five workloads at the operating points Table 1
// cares about — end-to-end frames/s, frame-latency percentiles, bytes,
// PSNR and peak RSS, plus per-layer numbers from SAD kernel to gateway
// relay — and a change is judged by alternating parent/change runs of
// bench/run.sh on one host, never against a pinned absolute number. For
// ad-hoc investigation,
// `acbmbench -cpuprofile/-memprofile` write pprof profiles of any
// experiment, and `vcodecd -pprof addr` serves net/http/pprof for live
// sessions.
//
// # Serving architecture
//
// On top of the engine sits an encode-as-a-service layer, the
// "variable bandwidth channel" deployment the paper targets:
//
//   - codec.EncodeStream is the streaming session API: frames in one at
//     a time, each finished frame out immediately as an independently
//     parseable packet (first-byte latency of one frame, not one
//     sequence). It is the session engine in packet framing; a slow
//     consumer throttles the encode (one frame in flight behind a
//     blocked emit) instead of growing a queue, and an emit error
//     poisons the session before any further frame is analysed.
//     codec.EncodePackets is its batch wrapper, and the uvarint
//     record framing (codec.PacketWriter/PacketReader) carries packet
//     streams over files and HTTP alike — with explicit indices, so a
//     lossy channel's drops are visible and concealable.
//   - codec.Pool is the multi-session scheduler's substrate: one
//     machine-sized analysis worker pool shared by every concurrent
//     session (Config.Pool replaces per-session Config.Workers), with
//     sessions interleaving at macroblock-row granularity on a FIFO
//     queue (the same row runner, one task per row, at most pool-size
//     tasks outstanding per session) — fair-share without
//     oversubscription, bitstreams still bit-identical to the
//     sequential encoder.
//   - internal/server (cmd/vcodecd) serves POST /encode: chunked Y4M
//     upload in, flushed packet records out, session stats in HTTP
//     trailers; admission control (session cap + bounded queue, 503
//     beyond), /healthz and /metrics (sessions, frames/s, per-phase
//     latency), and graceful SIGTERM drain that completes in-flight
//     streams while rejecting new ones.
//   - cmd/vload is the load generator: M concurrent sessions across a
//     sweep of session counts and one or more endpoints (comma-separated
//     -url round-robins), reporting aggregate throughput plus
//     first-packet and per-frame latency percentiles, optionally
//     byte-verifying the served stream against the offline encoder and
//     optionally honoring 503 Retry-After (-retry-after); a failed,
//     errored or short stream fails the run. TestDaemonSmoke
//     (daemon_test.go) drives the real daemons with it, one row per
//     serving surface; its serve row (`make serve-smoke`) is boot →
//     verified burst → clean drain. See examples/serve for the
//     walkthrough.
//   - internal/gateway (cmd/vcodec-gateway) makes N vcodecd backends one
//     system: health-aware least-loaded routing off each backend's
//     /healthz, bounded retries with capped-exponential
//     jittered backoff, per-backend circuit breakers, and drain-aware
//     rebalancing. The delivery contract is commit-point retry: a
//     session may be re-dispatched (upload replayed from a buffer) only
//     while zero response bytes have reached the client; after the first
//     byte, a backend failure surfaces as an explicit X-Vcodec-Error
//     trailer — never a truncated stream with a 200. The gateway
//     re-exposes /healthz and /metrics (per-backend breaker/routing
//     state) and drains gracefully on SIGTERM, gateway before backends.
//   - internal/gateway/chaos is the gateway tests' fault injector: a TCP
//     proxy in front of a backend stalls traffic or kills every
//     established connection mid-stream, which is how
//     TestGatewayMidStreamKillExplicitError and TestGatewayStallWatchdog
//     prove the commit-point contract. TestDaemonSmoke's cluster row
//     (`make cluster-smoke`) runs the real thing: boot → verified burst →
//     SIGKILL a backend → still-verified burst → clean drain.
//   - internal/server/qos.go closes the loop under overload: a
//     controller ticks every Config.QosInterval, folds per-phase
//     latency EWMAs, queue depth and session counts into one load
//     score, and steps sessions down an explicit degradation ladder
//     built on the paper's own cost/quality dial — ACBM's α/γ
//     thresholds relaxed (×2, then ×8; a budgeted session's target
//     shrunk), then Qp up — instead of letting latency grow without
//     bound; hysteresis (consecutive calm ticks below a low water mark
//     and a dwell time) restores quality without oscillating. No level
//     swaps the searcher or forces an intra frame. Actuations apply at
//     frame hand-off on the session goroutine, so every stream stays
//     deterministic under Workers × Pipeline × Pool; a session's
//     actual level travels in the
//     X-Vcodec-Qos-Level/-Transitions trailers. ?priority=batch
//     sessions degrade one level deeper and are scheduled behind live
//     work (with an anti-starvation share); ?qoslevel=N pins a session
//     at a fixed rung, exempt from the controller and byte-identical to
//     the offline encoder under server.ApplyQosLevel — the hook the
//     verified benchmarks use. Admission 503s scale Retry-After with
//     queue depth and degradation level, the gateway's poller prefers
//     less-degraded backends on load ties, and TestDaemonSmoke's qos row
//     (`make qos-smoke`) holds the daemon to the contract: pinned rungs
//     byte-verified, a mixed-priority overload with zero truncated
//     streams that must raise vcodecd_qos_degrades_total, and full
//     quality restored after it, with vcodecd_qos_restores_total risen.
//   - internal/obs is the always-on flight recorder behind the serving
//     layer's observability: every session gets a trace ID (minted at
//     the gateway — or accepted from the client's X-Vcodec-Trace header
//     — propagated to the backend and echoed in both sides' trailers)
//     and a lock-free per-frame event ring recording each frame's phase
//     breakdown — Y4M read, pool-queue wait, max preemption stall,
//     analysis, entropy, emit — plus bits, Qp, QoS level and actuation
//     marks, written from the existing phase boundaries via the
//     codec.Config.Observer hook. The recorder observes and never
//     actuates: byte-identity and the per-frame allocation ceiling hold
//     with it on, and `make bench-smoke` guards its overhead. Exposure:
//     log-bucketed latency histograms on both /metrics endpoints
//     (vcodecd per-phase, gateway route/relay-gap), /debug/vcodec/
//     sessions + trace?id= + qos JSON endpoints (the gateway proxies
//     trace lookups fleet-wide), and pprof labels (vcodec_session/
//     priority/searcher) on session goroutines so live profiles slice
//     by session. vload names each point's slowest session by trace ID
//     and dumps its timeline; TestDaemonSmoke's obs row (`make
//     obs-smoke`) runs burst → fetch-trace-by-ID → timeline-matches-stream
//     → clean drain.
//   - codec.EncodeLadder (vcodecd /encode?ladder=WxH@kbps,..., vcodec
//     encode -ladder) is the simulcast ABR path: one upload fans out to
//     N renditions that share ingest, the 2:1 downscale chain
//     (frame.Downscale — exact box filter, SWAR fast path pinned to the
//     scalar reference by differential+fuzz tests, pooled outputs) and
//     cross-layer motion analysis. Rungs encode concurrently, one
//     goroutine per rung chained by cap-1 channels with a one-frame lag:
//     each lower rung's searcher receives the rung above's final motion
//     field scaled down as a search.LayerSeed — up to four extra
//     candidate probes on the PBM predictor path, replacing the temporal
//     predictors. Seeds never constrain the search, so every rung is
//     independently decodable, rung 0 (never seeded) is byte-identical
//     to a plain single encode, and the whole ladder is byte-identical
//     across Workers × Pipeline × Pool (pinned under -race). Per-rung
//     TargetKbps reuses the frame-lag rate controller unchanged. On the
//     wire, sessions interleave uvarint (rung, index, length, payload)
//     records; `vcodec ladder-split` demultiplexes a saved session into
//     per-rung packet artifacts, the X-Vcodec-Rungs trailer carries
//     per-rung frames/PSNR/kbps, the flight recorder tags events by
//     rung, and /metrics exports plane-pool hit/miss counters per size
//     class (ladder sessions churn downscaled planes hardest).
//     TestDaemonSmoke's ladder row (`make ladder-smoke`) runs serve →
//     split → byte-match the offline ladder → decode every rung → clean
//     drain; what seeding saves is
//     recorded under ROADMAP's "Decided against" and in DESIGN.md.
package repro
