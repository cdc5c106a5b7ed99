package codec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Simulcast ladder: one source ingested once, encoded into N renditions
// (rungs) halving in each dimension, with each lower rung's motion search
// seeded from the rung above's scaled motion field (search.LayerSeed on
// the PBM predictor path).
//
// Topology: one goroutine per rung, chained by capacity-1 channels. Rung
// r's goroutine analyses frame n, then downscales its source frame
// (frame.DownscaleFrame, pooled output) and hands {frame, motion field}
// to rung r+1 — so rung r+1 analyses frame n while rung r is already on
// frame n+1: a one-frame lag between adjacent rungs, pipelined exactly
// like the engine's phase overlap. Every rung is one session engine (see
// Encoder) in packet framing, and the hand-off down the chain rides its
// frame hand-off point: the encode step returns only after the frame's
// analysis is complete, so the field a lower rung receives is final —
// never a partially computed wavefront.
//
// Determinism: a rung's seed for frame n is a pure function of the rung
// above's (worker-invariant) field for frame n, and seeds are evaluated
// as ordinary predictor probes. By induction every rung's bitstream is
// byte-identical across Workers × Pipeline × Pool, and — the seeds only
// ever influence which motion vectors are *chosen*, never how they are
// *coded* — each rung is independently decodable by the unmodified
// decoder (TestLadderBitIdenticalAcrossModes pins both).

// RungSpec is one rendition of a ladder: its frame format and, when
// non-zero, the bitrate target its frame-lag rate controller steers to.
type RungSpec struct {
	Size       frame.Size
	TargetKbps float64
}

// ParseKbps parses a Config.TargetKbps value — /encode?kbps= and a ladder
// rung's @kbps: a finite number ≥ 0, 0 meaning constant quantiser.
func ParseKbps(s string) (float64, error) {
	kbps, err := strconv.ParseFloat(s, 64)
	if err != nil || !(kbps >= 0) || math.IsInf(kbps, 1) {
		return 0, fmt.Errorf("codec: bad bitrate %q (want finite kbit/s ≥ 0)", s)
	}
	return kbps, nil
}

// ParseLadderSpec parses the "WxH@kbps,WxH@kbps,..." vocabulary shared by
// /encode?ladder= and the CLI -ladder flags. The @kbps part is optional
// (constant-quantiser rung). The parsed chain is validated: top rung
// first, each rung exactly half the previous in both dimensions, all
// macroblock-aligned.
func ParseLadderSpec(s string) ([]RungSpec, error) {
	var specs []RungSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		dim, kbpsStr, hasKbps := strings.Cut(part, "@")
		wStr, hStr, ok := strings.Cut(dim, "x")
		if !ok {
			return nil, fmt.Errorf("codec: bad ladder rung %q (want WxH or WxH@kbps)", part)
		}
		w, err1 := strconv.Atoi(wStr)
		h, err2 := strconv.Atoi(hStr)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("codec: bad ladder rung size %q", dim)
		}
		spec := RungSpec{Size: frame.Size{W: w, H: h}}
		if hasKbps {
			kbps, err := ParseKbps(kbpsStr)
			if err != nil {
				return nil, fmt.Errorf("codec: bad ladder rung bitrate %q", kbpsStr)
			}
			spec.TargetKbps = kbps
		}
		specs = append(specs, spec)
	}
	if err := ValidateLadder(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// ValidateLadder checks a rung chain: at least one rung, every size
// divisible into 16×16 macroblocks, and each rung exactly half the
// previous in both dimensions (the 2:1 relation frame.Downscale and
// search.FieldSeed assume).
func ValidateLadder(specs []RungSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("codec: empty ladder")
	}
	for i, spec := range specs {
		if err := validateSize(spec.Size); err != nil {
			return fmt.Errorf("codec: ladder rung %d: %w", i, err)
		}
		if i > 0 {
			up := specs[i-1].Size
			if spec.Size.W != up.W/2 || spec.Size.H != up.H/2 {
				return fmt.Errorf("codec: ladder rung %d (%v) is not half of rung %d (%v)",
					i, spec.Size, i-1, up)
			}
		}
	}
	return nil
}

// Rung pairs a rendition's frame format with its complete encoder
// configuration. Each rung needs its OWN Searcher instance (never share
// one across rungs — stateful searchers like the budgeted ACBM servo
// would race); Workers/Pool/Pipeline/TargetKbps compose per rung exactly
// as for a single EncodeStream.
type Rung struct {
	Size frame.Size
	Cfg  Config
}

// ladderItem is one frame travelling down the rung chain: the rung's
// (downscaled, pooled) source and the motion field the rung above found
// for it — nil for intra frames, where the lower rung simply falls back
// to its ordinary predictor set.
type ladderItem struct {
	f    *frame.Frame
	seed *mvfield.Field
}

type ladderRung struct {
	size frame.Size
	enc  *Encoder
	in   chan ladderItem
	done chan struct{}
}

// LadderStream is the streaming simulcast session: source frames go in
// one at a time, and every rung's packets come out through emit, tagged
// with the rung index. Per-rung packets arrive in order; the interleaving
// across rungs is arbitrary (emit is serialised internally, so it is
// never called concurrently).
//
// The source frame passed to EncodeFrame is read by rung 0's analysis,
// its PSNR statistics and the rung-1 downscale; it must not be mutated
// until Close returns.
type LadderStream struct {
	rungs []*ladderRung
	last  int

	emitFn func(rung int, p Packet) error
	emitMu sync.Mutex

	errMu  sync.Mutex
	err    error
	closed bool
}

// NewLadderStream starts one encode session per rung and the goroutine
// chain connecting them. The caller must call Close to drain the chain
// and collect per-rung statistics.
func NewLadderStream(rungs []Rung, emit func(rung int, p Packet) error) (*LadderStream, error) {
	specs := make([]RungSpec, len(rungs))
	for i, r := range rungs {
		specs[i] = RungSpec{Size: r.Size, TargetKbps: r.Cfg.TargetKbps}
	}
	if err := ValidateLadder(specs); err != nil {
		return nil, err
	}
	l := &LadderStream{emitFn: emit, last: len(rungs) - 1}
	for i, r := range rungs {
		rung := &ladderRung{
			size: r.Size,
			in:   make(chan ladderItem, 1), // one-frame lag between adjacent rungs
			done: make(chan struct{}),
		}
		idx := i
		rung.enc = newEngine(r.Cfg, func(p Packet) error {
			l.emitMu.Lock()
			defer l.emitMu.Unlock()
			return l.emitFn(idx, p)
		})
		l.rungs = append(l.rungs, rung)
	}
	for i := range l.rungs {
		go l.runRung(i)
	}
	return l, nil
}

// Err returns the first error any rung hit, or nil.
func (l *LadderStream) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

func (l *LadderStream) setErr(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.errMu.Unlock()
}

// EncodeFrame feeds one source frame (the top rung's format) into the
// ladder. It returns once the top rung can accept the frame; encoding
// proceeds down the chain asynchronously.
func (l *LadderStream) EncodeFrame(f *frame.Frame) error {
	if l.closed {
		return fmt.Errorf("codec: ladder stream closed")
	}
	if err := l.Err(); err != nil {
		return err
	}
	if f.Size() != l.rungs[0].size {
		return fmt.Errorf("codec: ladder source is %v, top rung wants %v", f.Size(), l.rungs[0].size)
	}
	l.rungs[0].in <- ladderItem{f: f}
	return nil
}

// runRung is rung r's encode loop: seed from the upper field, encode,
// downscale and hand down, recycle the previous downscaled source.
func (l *LadderStream) runRung(r int) {
	rung := l.rungs[r]
	// prev is the rung's previous (downscaled, ladder-owned) source frame.
	// Its last readers are its own packet write (PSNR) and the downscale
	// for the rung below — both complete by the time the *next* frame's
	// encode step returns (the writer accepts frame n+1's job only after
	// finishing frame n), so it is recycled one frame late. Rung 0 sources
	// are caller-owned and never released here.
	var prev *frame.Frame
	for item := range rung.in {
		var j *frameJob
		err := l.Err() // sticky: once any rung failed, the chain only drains
		if err == nil {
			var seed search.LayerSeed
			if item.seed != nil {
				seed = &search.FieldSeed{Field: item.seed, Shift: 1}
			}
			if j, err = rung.enc.encode(item.f, seed); err != nil {
				l.setErr(fmt.Errorf("codec: ladder rung %d: %w", r, err))
			}
		}
		if err != nil {
			if r > 0 {
				item.f.Release()
			}
			continue
		}
		if r < l.last {
			l.rungs[r+1].in <- ladderItem{f: frame.DownscaleFrame(item.f), seed: j.curField}
		}
		if r > 0 {
			prev.Release()
			prev = item.f
		}
	}
	if r < l.last {
		close(l.rungs[r+1].in)
	}
	if err := rung.enc.finalise(); err != nil {
		l.setErr(fmt.Errorf("codec: ladder rung %d: %w", r, err))
	}
	if r > 0 {
		// Safe only now: the finalise joined the rung's writer, so the
		// last frame's packet (and its PSNR read) is done.
		prev.Release()
	}
	close(rung.done)
}

// Close drains the rung chain and returns per-rung sequence statistics
// (indexed like the rung specs) plus the first error any rung hit.
// Idempotent.
func (l *LadderStream) Close() ([]*SequenceStats, error) {
	if !l.closed {
		l.closed = true
		close(l.rungs[0].in)
		for _, rung := range l.rungs {
			<-rung.done
		}
	}
	stats := make([]*SequenceStats, len(l.rungs))
	for i, rung := range l.rungs {
		stats[i] = rung.enc.Stats()
	}
	return stats, l.Err()
}

// EncodeLadder is the batch form: frames in, one packet list per rung
// out (packets[r][i] is rung r's packet i, header included), plus
// per-rung statistics. The workhorse behind `vcodec encode -ladder`, the
// ladder experiment and the smoke test's offline pin.
func EncodeLadder(rungs []Rung, frames []*frame.Frame) ([][][]byte, []*SequenceStats, error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("codec: no frames to encode")
	}
	packets := make([][][]byte, len(rungs))
	l, err := NewLadderStream(rungs, func(r int, p Packet) error {
		packets[r] = append(packets[r], p.Data)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, f := range frames {
		if err := l.EncodeFrame(f); err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("codec: ladder frame %d: %w", i, err)
		}
	}
	stats, err := l.Close()
	if err != nil {
		return nil, nil, err
	}
	return packets, stats, nil
}
