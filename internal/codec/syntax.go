package codec

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/arith"
	"repro/internal/bitstream"
	"repro/internal/entropy"
)

// EntropyMode selects the entropy backend for everything after the
// sequence header.
type EntropyMode int

const (
	// EntropyExpGolomb is the baseline static-code mode (the default).
	EntropyExpGolomb EntropyMode = iota
	// EntropyArith codes the same syntax elements with the adaptive
	// binary arithmetic coder — the counterpart of H.263 Annex E.
	EntropyArith
)

// String implements fmt.Stringer.
func (m EntropyMode) String() string {
	if m == EntropyArith {
		return "arith"
	}
	return "expgolomb"
}

// ParseEntropyMode maps an entropy backend's name onto its mode: the
// vocabulary of cmd/vcodec's -entropy flag, vcodecd's entropy= query
// parameter and vload's config, case-insensitive, empty meaning the
// default.
func ParseEntropyMode(name string) (EntropyMode, error) {
	switch strings.ToLower(name) {
	case "", "expgolomb", "eg":
		return EntropyExpGolomb, nil
	case "arith", "arithmetic", "sac":
		return EntropyArith, nil
	}
	return 0, fmt.Errorf("unknown entropy backend %q", name)
}

// Syntax element contexts. The Exp-Golomb backend ignores them; the
// arithmetic backend allocates adaptive probability models per context.
const (
	sctxMore    = iota // another-frame-follows flag
	sctxCOD            // macroblock skip flag
	sctxMode           // intra/inter flag
	sctxCBP            // coded-block-pattern flags
	sctxACFlag         // intra AC-coded flag
	sctxLast           // TCOEF last flag
	sctxRun            // TCOEF run (UE)
	sctxLevel          // TCOEF level (SE)
	sctxMVX            // MV difference x (SE)
	sctxMVY            // MV difference y (SE)
	sctxInter4V        // reserved four-vector flag, always false
	numSctx
)

// prefixModelsPerCtx bounds the per-position models of the unary-ish
// Exp-Golomb prefix in arithmetic mode.
const prefixModelsPerCtx = 8

// symWriter serialises syntax elements. Raw bits are only legal before
// BeginData (the sequence header).
type symWriter interface {
	// RawHeader appends plain bits (sequence header only).
	RawHeader(v uint64, n uint)
	// UEHeader appends an Exp-Golomb value to the header.
	UEHeader(v uint32)
	// BeginData marks the end of the raw header.
	BeginData()
	Flag(ctx int, b bool)
	UE(ctx int, v uint32)
	SE(ctx int, v int32)
	Bits(v uint64, n uint) // fixed-length field (intra DC)
	// RunLevelLast emits one TCOEF event — UE(sctxRun), SE(sctxLevel),
	// Flag(sctxLast) — letting the Exp-Golomb backend pack all three
	// codes into a single word write.
	RunLevelLast(run uint32, level int32, last bool)
	// MVD emits a motion-vector difference — SE(sctxMVX), SE(sctxMVY) —
	// again packed into one word write by the Exp-Golomb backend.
	MVD(dx, dy int32)
	Len() int       // bits so far (approximate in arithmetic mode)
	Finish() []byte // finalise and return the stream
}

// symReader mirrors symWriter.
type symReader interface {
	RawHeader(n uint) (uint64, error)
	UEHeader() (uint32, error)
	BeginData() error
	Flag(ctx int) (bool, error)
	UE(ctx int) (uint32, error)
	SE(ctx int) (int32, error)
	Bits(n uint) (uint64, error)
}

// newSymWriter builds the backend for mode.
func newSymWriter(mode EntropyMode) symWriter {
	switch mode {
	case EntropyArith:
		return &arithWriter{}
	default:
		return &egWriter{}
	}
}

// --- Exp-Golomb backend -----------------------------------------------------

type egWriter struct {
	w bitstream.Writer
}

func (e *egWriter) RawHeader(v uint64, n uint) { e.w.WriteBits(v, n) }
func (e *egWriter) UEHeader(v uint32)          { entropy.WriteUE(&e.w, v) }
func (e *egWriter) BeginData()                 {}
func (e *egWriter) Flag(_ int, b bool) {
	if b {
		e.w.WriteBit(1)
	} else {
		e.w.WriteBit(0)
	}
}
func (e *egWriter) UE(_ int, v uint32)    { entropy.WriteUE(&e.w, v) }
func (e *egWriter) SE(_ int, v int32)     { entropy.WriteSE(&e.w, v) }
func (e *egWriter) Bits(v uint64, n uint) { e.w.WriteBits(v, n) }
func (e *egWriter) RunLevelLast(run uint32, level int32, last bool) {
	entropy.WriteRunLevelLast(&e.w, run, level, last)
}
func (e *egWriter) MVD(dx, dy int32) { entropy.WriteSEPair(&e.w, dx, dy) }
func (e *egWriter) Len() int         { return e.w.Len() }
func (e *egWriter) Finish() []byte   { return e.w.Bytes() }

type egReader struct {
	r *bitstream.Reader
}

func (e *egReader) RawHeader(n uint) (uint64, error) { return e.r.ReadBits(n) }
func (e *egReader) UEHeader() (uint32, error)        { return entropy.ReadUE(e.r) }
func (e *egReader) BeginData() error                 { return nil }
func (e *egReader) Flag(_ int) (bool, error) {
	b, err := e.r.ReadBit()
	return b == 1, err
}
func (e *egReader) UE(_ int) (uint32, error)    { return entropy.ReadUE(e.r) }
func (e *egReader) SE(_ int) (int32, error)     { return entropy.ReadSE(e.r) }
func (e *egReader) Bits(n uint) (uint64, error) { return e.r.ReadBits(n) }

// --- Arithmetic backend -----------------------------------------------------

type arithWriter struct {
	header bitstream.Writer
	ae     *arith.Encoder
	models []arith.Model
	done   bool
}

func (a *arithWriter) RawHeader(v uint64, n uint) { a.header.WriteBits(v, n) }
func (a *arithWriter) UEHeader(v uint32)          { entropy.WriteUE(&a.header, v) }

func (a *arithWriter) BeginData() {
	if a.ae != nil {
		panic("codec: BeginData called twice")
	}
	a.ae = arith.NewEncoder()
	a.models = arith.NewModels(numSctx * prefixModelsPerCtx)
}

func (a *arithWriter) model(ctx, pos int) *arith.Model {
	if pos >= prefixModelsPerCtx {
		pos = prefixModelsPerCtx - 1
	}
	return &a.models[ctx*prefixModelsPerCtx+pos]
}

func (a *arithWriter) Flag(ctx int, b bool) {
	var bit uint
	if b {
		bit = 1
	}
	a.ae.EncodeBit(a.model(ctx, 0), bit)
}

// UE codes the Exp-Golomb binarisation of v: the prefix "continue" bits
// with per-position adaptive models, the suffix bits as bypass.
func (a *arithWriter) UE(ctx int, v uint32) {
	x := uint64(v) + 1
	k := bits.Len64(x) // number of significant bits; prefix has k-1 zeros
	for i := 0; i < k-1; i++ {
		a.ae.EncodeBit(a.model(ctx, i), 1) // 1 = prefix continues
	}
	a.ae.EncodeBit(a.model(ctx, k-1), 0) // 0 = prefix terminates
	for i := k - 2; i >= 0; i-- {
		a.ae.EncodeBypass(uint(x >> uint(i) & 1))
	}
}

func (a *arithWriter) SE(ctx int, v int32) { a.UE(ctx, entropy.MapSigned(v)) }

// RunLevelLast and MVD have no word path in arithmetic mode: they emit the
// exact per-context symbol sequence, so the adaptive models see precisely
// the bits the unbatched writer produced.
func (a *arithWriter) RunLevelLast(run uint32, level int32, last bool) {
	a.UE(sctxRun, run)
	a.SE(sctxLevel, level)
	a.Flag(sctxLast, last)
}

func (a *arithWriter) MVD(dx, dy int32) {
	a.SE(sctxMVX, dx)
	a.SE(sctxMVY, dy)
}

func (a *arithWriter) Bits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		a.ae.EncodeBypass(uint(v >> uint(i) & 1))
	}
}

func (a *arithWriter) Len() int {
	n := a.header.Len()
	if a.ae != nil {
		n = 8*len(a.header.Bytes()) + a.ae.BitsEmitted()
	}
	return n
}

func (a *arithWriter) Finish() []byte {
	if a.ae == nil {
		return a.header.Bytes()
	}
	if !a.done {
		a.ae.Close()
		a.done = true
	}
	return append(a.header.Bytes(), a.ae.Bytes()...)
}

type arithReader struct {
	r      *bitstream.Reader
	data   []byte
	ad     *arith.Decoder
	models []arith.Model
}

func (a *arithReader) RawHeader(n uint) (uint64, error) { return a.r.ReadBits(n) }
func (a *arithReader) UEHeader() (uint32, error)        { return entropy.ReadUE(a.r) }

func (a *arithReader) BeginData() error {
	// The encoder byte-aligns the header (bitstream padding), so the
	// arithmetic payload starts at the next byte boundary.
	start := (a.r.Pos() + 7) / 8
	if start > len(a.data) {
		return fmt.Errorf("codec: header overruns stream")
	}
	ad, err := arith.NewDecoder(a.data[start:])
	if err != nil {
		return err
	}
	a.ad = ad
	a.models = arith.NewModels(numSctx * prefixModelsPerCtx)
	return nil
}

func (a *arithReader) model(ctx, pos int) *arith.Model {
	if pos >= prefixModelsPerCtx {
		pos = prefixModelsPerCtx - 1
	}
	return &a.models[ctx*prefixModelsPerCtx+pos]
}

func (a *arithReader) Flag(ctx int) (bool, error) {
	b := a.ad.DecodeBit(a.model(ctx, 0))
	return b == 1, a.ad.Err()
}

func (a *arithReader) UE(ctx int) (uint32, error) {
	k := 1
	for a.ad.DecodeBit(a.model(ctx, k-1)) == 1 {
		k++
		if k > 32 {
			return 0, fmt.Errorf("codec: arithmetic UE prefix too long")
		}
	}
	x := uint64(1)
	for i := 0; i < k-1; i++ {
		x = x<<1 | uint64(a.ad.DecodeBypass())
	}
	if err := a.ad.Err(); err != nil {
		return 0, err
	}
	return uint32(x - 1), nil
}

func (a *arithReader) SE(ctx int) (int32, error) {
	u, err := a.UE(ctx)
	if err != nil {
		return 0, err
	}
	return entropy.UnmapSigned(u), nil
}

func (a *arithReader) Bits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		v = v<<1 | uint64(a.ad.DecodeBypass())
	}
	return v, a.ad.Err()
}
