package metrics

import (
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/dct"
	"repro/internal/frame"
)

// The kernels an encode or decode runs dispatch through a package-level
// function-pointer table selected once at init from the host CPU: the
// fastest available ISA wins, and every slower tier stays registered as a
// fallback (avx2 → sse2 → swar → scalar). All tables are bit-identical by
// construction and by the differential/fuzz tests in dispatch_test.go —
// which ISA is active can never change a SAD value, a search winner or
// an encoded bit. The exported entry points in sad.go keep the guard
// conditions (width multiple of 8, lane-overflow bounds) uniform across
// ISAs, so the dispatch decision is the same on every architecture and
// the scalar tails run identically everywhere.
//
// The scalar loops remain the reference oracles; the SWAR kernels are
// the portable vector tier; per-architecture assembly (sad_amd64.s)
// plugs in above them. To add an ISA: implement the kernelTable
// contract in a dispatch_<arch>.go + .s pair, return it from
// archKernelTables (fastest last), and the differential tests pick it
// up automatically via KernelISAs.

// kernelTable is one ISA's implementation of the vector-eligible kernels.
// Callers (the exported functions in sad.go) validate the geometry before
// dispatching:
//
//   - intraSAD: w%8 == 0, w ≤ 256, block in-plane; Σ|p−µ| with µ the
//     block's Mean, which the tier derives itself (the AVX2 16×16 kernel
//     reads the block once for both)
//   - ring: all 8 half-pel neighbours of (rx, ry) in one pass,
//     w%8 == 0, w·h ≤ 256, the (w+2)×(h+2) window from (rx−1, ry−1)
//     inside ref's apron (InApron), read through PixFrom and nothing
//     beside it (the scalar tier clamps to the plane instead) — an edge
//     block's ring reaches the apron, and its
//     off-plane slots are the edge-replicated values the scalar tier's
//     clamping computes. Returns the probe array BY VALUE with the
//     centre slot zero — an out-pointer through
//     an indirect call would escape the caller's stack array to the
//     heap on every refinement; the exported SADHalfPelRing restores
//     the caller's centre slot to honour its contract
//   - sadBest: the 16×16 window search behind SADBest; clip non-empty,
//     spiral = Spiral(clip.radius()), the cur block and every displacement
//     inside clip in-plane. Only the winner is defined (the lowest (SAD,
//     L1, DY, DX) below best, which is the first strictly-smallest SAD
//     along spiral; else any Offset and best unchanged): a tier may drop a
//     displacement as soon as any lower bound on its SAD shows it cannot
//     win — a partial sum at any row granularity, or (AVX2) a successive-
//     elimination bound computed before the candidate is read — and may
//     visit the displacements in any order that keeps that winner. sums is
//     the caller's BoxSums for ref, or nil; a tier with no bound pass
//     ignores it, and the AVX2 one fills the tiles the window needs (or,
//     with none that covers ref, a per-call window of sums on its stack).
//     It reads nothing outside the cur block and the visible reference
//   - sadBestFew: the first strictly-best of cands[:n], 1 ≤ n ≤ FewCands,
//     in list order (SADBestFew), the list passed by value so the caller's
//     array stays on its stack; the same row kernels and early exits
//   - sse: sum of squared differences behind SSE; w%8 == 0,
//     w·h ≤ sseMaxSamples (so 32-bit lane sums cannot overflow), both
//     blocks in-plane. Exact integer arithmetic: no rounding rule, no
//     early exit, nothing for a tier to get subtly wrong except a lane
//     fold
//   - mbSSE: the six 8×8 block energies of one macroblock behind
//     MacroblockSSE, in coding order, BY VALUE like ring; both frames the
//     same size, macroblock in-frame, each frame's Cb and Cr sharing a
//     stride
//   - predict: the prediction fetch behind PredictBlock; w ∈ {8, 16},
//     h ≥ 1, every source sample inside ref's apron, the destination
//     window inside dst. Writes the w×h window and not one byte beside it
//     (a wider store would land in a neighbouring macroblock another
//     wavefront lane owns, and the race detector cannot see assembly
//     stores — the guard-band test is what holds this)
//   - residualRows: the row pass behind ResidualRows; both 8×8 blocks
//     in-plane. One rounding per multiply and per add, in
//     dct.ForwardRows' order: all seventy-two float64 results equal the
//     scalar tier's bit for bit. Unlike ring's nine ints they travel
//     through an out-pointer: 576 bytes cost more to copy than the vector
//     kernel takes, so the caller owns long-lived storage instead
//     (ResidualRows)
//   - colQuant: the column pass and quantiser behind ColQuant, finishing a
//     block from its row pass: dct.QuantizeInterRows' (or, intra,
//     QuantizeIntraRows') levels, nz and live. A column whose row-pass
//     energy is at or below the zero bound is never computed; the others
//     round one multiply and one add at a time in dct.dot8's order, and
//     round to integers half away from zero exactly
//   - inverseAdd: the reconstruction behind InverseAdd — dequantise,
//     dct.Inverse, add the 8×8 prediction, frame.ClampU8 — both blocks
//     in-plane, the prediction possibly the destination window itself.
//     Same rounding rules as colQuant; zero terms of all-zero coefficient
//     rows and columns may be skipped (they change only a zero's sign).
//     Writes the 8×8 window and not one byte beside it, like predict. Both
//     entries take the block of levels through a pointer, which the
//     indirect call makes escape: the caller owns long-lived storage
type kernelTable struct {
	name string

	intraSAD func(p *frame.Plane, x, y, w, h int) int
	ring     func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) [9]int

	sadBest    func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, spiral []Offset, clip Rect, best int, sums *BoxSums) (o Offset, sad int)
	sadBestFew func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands [FewCands]Offset, n int, clip Rect, best int) (idx, sad int)

	sse   func(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int
	mbSSE func(a, b *frame.Frame, mbx, mby int) [6]int

	predict      func(dst *frame.Plane, dx, dy int, ref *frame.Plane, hx, hy, w, h int)
	residualRows func(rp *dct.RowPass, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by int)
	colQuant     func(levels *dct.Block, rp *dct.RowPass, qp int, intra bool) (nz bool, live int)
	inverseAdd   func(dst *frame.Plane, dx, dy int, pred *frame.Plane, px, py int, levels *dct.Block, qp int, intra bool)
}

// activeKernels is the table every exported SAD entry point reads. It is
// an atomic pointer so tests and experiments can swap ISAs (SetKernelISA)
// while encodes run under the race detector; on amd64 the load compiles
// to a plain MOV.
var activeKernels atomic.Pointer[kernelTable]

// kernelTables holds every ISA available on this host, slowest first.
var kernelTables []*kernelTable

// kernelInitNote records anything surprising during init (an env
// override that named an unavailable ISA); surfaced by the dispatch
// sanity check.
var kernelInitNote string

// KernelEnvVar, when set to an ISA name (scalar, swar, sse2, avx2),
// overrides the automatic pick at process start — the escape hatch for
// pinning benchmarks and for triaging a suspect kernel in production. It
// pins the table's kernels only: single-probe SAD runs SWAR on every host
// whatever it names.
const KernelEnvVar = "VCODEC_SAD_KERNEL"

func kernels() *kernelTable { return activeKernels.Load() }

func init() {
	kernelTables = []*kernelTable{scalarTable(), swarTable()}
	kernelTables = append(kernelTables, archKernelTables()...)
	best := kernelTables[len(kernelTables)-1]
	if env := os.Getenv(KernelEnvVar); env != "" {
		if t := kernelTableByName(env); t != nil {
			best = t
		} else {
			kernelInitNote = KernelEnvVar + "=" + env + " names an unavailable ISA; using " + best.name
		}
	}
	activeKernels.Store(best)
}

func kernelTableByName(name string) *kernelTable {
	for _, t := range kernelTables {
		if t.name == name {
			return t
		}
	}
	return nil
}

// ActiveKernelISA names the SAD kernel tier currently dispatched to:
// "scalar", "swar", or an architecture-specific tier such as "sse2" or
// "avx2".
func ActiveKernelISA() string { return kernels().name }

// KernelISAs lists the tiers available on this host in fallback order,
// slowest first; the last entry is the automatic pick.
func KernelISAs() []string {
	names := make([]string, len(kernelTables))
	for i, t := range kernelTables {
		names[i] = t.name
	}
	return names
}

// KernelInitNote reports anything surprising about kernel selection at
// process start ("" when the automatic pick ran cleanly).
func KernelInitNote() string { return kernelInitNote }

// SetKernelISA activates the named kernel tier and returns a restore
// function, or an error naming the available tiers if the ISA does not
// exist on this host. It is safe to call while encodes run (the switch
// is atomic, and every tier is bit-identical), but it is process-global:
// intended for tests, benchmarks and the acbmbench ISA sweeps, not for
// per-session tuning.
func SetKernelISA(name string) (restore func(), err error) {
	t := kernelTableByName(name)
	if t == nil {
		avail := append([]string(nil), KernelISAs()...)
		sort.Strings(avail)
		return nil, &UnknownISAError{Name: name, Available: avail}
	}
	prev := activeKernels.Swap(t)
	return func() { activeKernels.Store(prev) }, nil
}

// UnknownISAError reports a SetKernelISA name not available on this host.
type UnknownISAError struct {
	Name      string
	Available []string
}

func (e *UnknownISAError) Error() string {
	msg := "metrics: unknown SAD kernel ISA " + e.Name + " (available:"
	for _, a := range e.Available {
		msg += " " + a
	}
	return msg + ")"
}

// scalarTable adapts the reference loops to the table contract. It is
// the ground truth every other tier is differential-tested against.
func scalarTable() *kernelTable {
	return &kernelTable{
		name:     "scalar",
		intraSAD: intraSADScalar,
		ring:     sadHalfPelRingScalar,
		sadBest: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, spiral []Offset, clip Rect, best int, _ *BoxSums) (Offset, int) {
			return spiralBest(sadCappedScalar, cur, cx, cy, ref, rx, ry, 16, 16, spiral, clip, best)
		},
		sadBestFew: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands [FewCands]Offset, n int, clip Rect, best int) (int, int) {
			return sadBestBy(sadCappedScalar, cur, cx, cy, ref, rx, ry, 16, 16, cands[:n], clip, best)
		},
		sse:          sseStripScalar,
		mbSSE:        macroblockSSEScalar,
		predict:      predictScalar,
		residualRows: residualRowsScalar,
		colQuant:     colQuantScalar,
		inverseAdd:   inverseAddScalar,
	}
}

// swarTable is the portable 8-px/uint64 vector tier — the previous
// fastest path, now the universal fallback beneath the per-ISA assembly.
func swarTable() *kernelTable {
	return &kernelTable{
		name: "swar",
		intraSAD: func(p *frame.Plane, x, y, w, h int) int {
			return intraSADSWAR(p, x, y, w, h, meanOf(planeSumSWAR(p, x, y, w, h), w, h))
		},
		ring: sadHalfPelRingSWAR,
		sadBest: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, spiral []Offset, clip Rect, best int, _ *BoxSums) (Offset, int) {
			return spiralBest(sadCappedSWAR, cur, cx, cy, ref, rx, ry, 16, 16, spiral, clip, best)
		},
		sadBestFew: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands [FewCands]Offset, n int, clip Rect, best int) (int, int) {
			return sadBestBy(sadCappedSWAR, cur, cx, cy, ref, rx, ry, 16, 16, cands[:n], clip, best)
		},
		// Squares do not fit SWAR's 16-bit lanes.
		sse:   sseStripScalar,
		mbSSE: macroblockSSEScalar,
		// frame.HalfPelBlock is word-parallel Go already, and a uint64 holds
		// no float64 lanes.
		predict:      predictScalar,
		residualRows: residualRowsScalar,
		colQuant:     colQuantScalar,
		inverseAdd:   inverseAddScalar,
	}
}

// sadHalfPelRingScalar is the reference ring: eight independent scalar
// probes in the same slot order as the fused kernels.
func sadHalfPelRingScalar(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) (out [9]int) {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			out[(dy+1)*3+dx+1] = sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx+dx, 2*ry+dy, w, h)
		}
	}
	return out
}
