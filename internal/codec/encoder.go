package codec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// mbMode is a macroblock coding mode.
type mbMode int

const (
	mbSkip mbMode = iota // COD=1: copy collocated block, zero MV
	mbInter
	mbIntra
)

// The encoder runs every frame in two phases:
//
//  1. analyze — motion estimation, mode decision, transform/quantisation
//     and reconstruction per macroblock. Results land in an mbResult per
//     MB and reconstructed pixels go straight into the (disjoint) MB
//     regions of the recon frame. This phase touches no entropy state, so
//     it can run across a worker pool (see parallel.go): macroblock rows
//     run concurrently, each trailing the row above by two macroblocks,
//     because the PBM/ACBM predictors read only the left, up-left, up and
//     up-right neighbours of the current motion field.
//  2. write — serial raster-order serialisation of the stored results.
//     The entropy coder (including the adaptive arithmetic contexts) sees
//     exactly the sequence of symbols the seed's interleaved encoder
//     produced, so bitstreams are bit-identical for every worker count.
//
// mbResult captures everything phase 2 needs from phase 1.
type mbResult struct {
	mode   mbMode
	mv     mvfield.MV   // inter: the macroblock vector
	points int          // candidate positions evaluated (Table 1 metric)
	class  search.Class // how an adaptive searcher resolved the block
	coded  [6]bool      // inter: per-block coded flags (Y0..Y3, Cb, Cr)
	// gated counts, for skip and inter macroblocks, the blocks the
	// zero-block gate settled without a transform (codeInterBlock); the
	// other 6−gated were transformed, rowOnly of them by the row pass
	// alone (dct.ForwardQuantizeInter found every coefficient column dead).
	gated, rowOnly int
	// levels holds the quantised coefficients in coding order: the four
	// luma blocks, then Cb, then Cr — intra and inter modes both use it.
	levels [6]dct.Block
}

// mbResultsPool recycles the per-frame result slabs (~1.6 KiB per MB)
// across frames and encoder instances.
var mbResultsPool sync.Pool // stores *[]mbResult

func getMBResults(n int) []mbResult {
	if v, _ := mbResultsPool.Get().(*[]mbResult); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]mbResult, n)
}

func putMBResults(rs []mbResult) {
	mbResultsPool.Put(&rs)
}

// Encoder encodes a sequence of equally sized frames: the first as an
// I-frame, the rest as P-frames referencing the previous reconstruction
// (plus periodic I-frames when Config.IntraPeriod is set). It is the one
// session engine — frames in, framed bytes out — behind every driver in
// this package: EncodeSequence and EncodeStream (hence EncodePackets, each
// LadderStream rung and every vcodecd session) are the same encode step
// and differ only in the two choices fixed at construction.
//
// Framing: with no emit callback the frames form one contiguous stream
// (sequence header, a continuation flag per frame) that Bitstream
// finalises and returns; with one, every frame leaves through it as an
// independently parseable Packet the moment it is written.
//
// Phase 2 placement: inline on the caller, or — Config.Pipeline — on one
// writer goroutine fed over an unbuffered channel, so the serial entropy
// coding of frame n overlaps the (possibly wavefront-parallel) analysis
// of frame n+1 with exactly one frame in flight. The overlap is legal
// because the phases touch disjoint state for different frames: writing
// frame n reads only its frameJob and the entropy coder, which analysis
// never touches; analysing frame n+1 reads frame n's reconstruction and
// motion field, both final before frame n's job is handed over. Jobs
// reach the writer in frame order, so the stateful entropy coder sees the
// symbol sequence of an inline encode, and the channel send completing
// is the one synchronisation point: the writer accepted job n, so it has
// finished job n−1 — its last reads of the reference n's analysis
// replaced, and its wroteBits — which is what frameHandoff relies on.
// The inline path calls frameHandoff at the same point of the frame
// sequence, so output bytes never depend on either choice, rate control
// included (TestPipelineBitIdentical, TestPacketsPipelineBitIdentical).
//
// The source frame passed to EncodeFrame must not be mutated until its
// frame is written (the next EncodeFrame's return at the latest, or the
// finalise): PSNR statistics read it in phase 2. A Pipeline encoder owns
// a goroutine until Bitstream (EncodeStream: Close) joins it.
type Encoder struct {
	cfg  Config
	size frame.Size
	// forker is cfg.Searcher's frame-granular fork/join capability. Every
	// searcher this module provides implements it; withDefaults forces
	// Workers=1 and Pool=nil for external ones that do not, so a nil
	// forker only ever reaches the plain sequential loop.
	forker search.Forker

	sw       symWriter
	out      []byte
	finished bool

	emit func(Packet) error // nil: contiguous stream into sw
	jobs chan *frameJob     // nil: phase 2 runs inline
	done chan struct{}      // closed when the writer goroutine exits
	// werr is the first emit error. It poisons the session: the failed
	// frame is the last one written, every later EncodeFrame and the
	// finalise return it. Written by whichever goroutine runs phase 2,
	// before failed is set.
	werr   error
	failed atomic.Bool
	// pending is the QoS actuation mailbox (see Actuate), drained at the
	// top of every encode step so each actuated parameter is fixed before
	// the frame's analysis begins.
	pending pendingActuation

	curQp int             // quantiser for the current frame
	rc    *rateController // nil unless Config.TargetKbps > 0
	// qpOffset is the QoS degradation offset added on top of the base
	// quantiser (cfg.Qp or the rate controller's plan) each frame, written
	// only by applyActuation on the session goroutine between frames.
	qpOffset int
	// curSeed is the cross-layer motion seed for the current frame's
	// analysis (simulcast ladder: the rung above's scaled field). Set by
	// the ladder driver on the analysis goroutine before analyzeFrameJob
	// and cleared after; nil everywhere else, so single-rung encodes are
	// untouched. Workers read it only through the per-MB scratch Input.
	curSeed search.LayerSeed
	// rcPrevJob is the last job whose write phase began: frameHandoff
	// settles its wroteBits at the next hand-off. One field serves the
	// inline and the overlapped write alike.
	rcPrevJob *frameJob

	// lumaApron/chromaApron are the replicated borders carried by every
	// reconstruction plane: the motion range plus the half-pel margin for
	// luma, so any position a searcher or the interpolation may read is
	// backed by real edge-replicated memory.
	lumaApron   int
	chromaApron int

	recon     *frame.Frame // reference: last reconstructed frame
	prevField *mvfield.Field
	frames    int
	// lanes is the per-lane analysis state (analyzeFrame): the scratch is
	// kept across frames, the searcher forked and joined within each.
	lanes []analysisLane

	// Cumulative wall clock per phase. In pipelined encodes the two
	// fields are owned by different goroutines (analysis by the caller,
	// entropy by the writer) and only read after the finalise.
	analysisTime time.Duration
	entropyTime  time.Duration

	// obsWaitNs/obsStallNs accumulate the current frame's pool queue
	// wait (summed across row tasks, and the worst single task).
	// Pool workers add via noteQueueWait; the session goroutine drains
	// both with Swap(0) when it reports the frame to cfg.Observer. Only
	// touched when an Observer is attached.
	obsWaitNs  atomic.Int64
	obsStallNs atomic.Int64

	stats SequenceStats
}

// PhaseTimes returns the cumulative wall clock spent in phase 1
// (macroblock analysis: motion search, transforms, reconstruction) and
// phase 2 (entropy coding and statistics). In pipeline mode the phases
// overlap, so the sum can exceed the encode's wall-clock time — and the
// call is valid only after the finalise: before that the writer goroutine
// still owns the entropy counter.
func (e *Encoder) PhaseTimes() (analysis, entropy time.Duration) {
	if e.jobs != nil && !e.finished {
		panic("codec: PhaseTimes of a pipelined encode before it is finalised")
	}
	return e.analysisTime, e.entropyTime
}

// NewEncoder returns an encoder producing one contiguous bitstream for the
// given configuration.
func NewEncoder(cfg Config) *Encoder { return newEngine(cfg, nil) }

// newEngine builds the session engine for cfg with the framing emit
// selects (see Encoder), starting the writer goroutine when cfg.Pipeline
// asks for the overlap.
func newEngine(cfg Config, emit func(Packet) error) *Encoder {
	cfg = cfg.withDefaults()
	e := &Encoder{
		cfg:   cfg,
		sw:    newSymWriter(cfg.Entropy),
		emit:  emit,
		curQp: cfg.Qp,
		stats: SequenceStats{FPS: cfg.FPS},
	}
	e.forker, _ = cfg.Searcher.(search.Forker)
	if cfg.TargetKbps > 0 {
		e.rc = newRateController(cfg.TargetKbps, cfg.FPS, cfg.Qp)
	}
	e.lumaApron, e.chromaApron = refAprons(cfg.SearchRange)
	if cfg.Pipeline {
		e.jobs = make(chan *frameJob) // unbuffered: exactly one frame in flight
		e.done = make(chan struct{})
		go func() {
			defer close(e.done)
			for j := range e.jobs {
				e.writeFrame(j)
			}
		}()
	}
	return e
}

// refAprons sizes the reconstruction-plane borders for a motion search
// range: the luma apron covers the full range plus the half-pel margin,
// the chroma apron the halved range — both at least the minimum the
// half-pel interpolation needs to fill its own border without clamping.
func refAprons(searchRange int) (luma, chroma int) {
	luma = searchRange + 1
	if luma < frame.MinInterpApron {
		luma = frame.MinInterpApron
	}
	chroma = luma / 2
	if chroma < frame.MinInterpApron {
		chroma = frame.MinInterpApron
	}
	return luma, chroma
}

// Stats returns per-frame statistics for everything encoded so far. In
// arithmetic entropy mode the per-frame bit counts are approximate (the
// range coder buffers up to a few bytes across frame boundaries); totals
// are exact.
func (e *Encoder) Stats() *SequenceStats { return &e.stats }

// Bitstream finalises the encode and returns the contiguous stream (nil
// for a packet session, whose bytes left through emit). The first call
// ends the sequence; subsequent EncodeFrame calls fail.
func (e *Encoder) Bitstream() []byte {
	e.finalise()
	return e.out
}

// finalise ends the session: it joins the writer goroutine, terminates
// the contiguous stream and returns the emit error that poisoned the
// session, if any. Idempotent.
func (e *Encoder) finalise() error {
	if !e.finished {
		e.finished = true
		if e.jobs != nil {
			close(e.jobs)
			<-e.done
		}
		if e.emit == nil && e.frames > 0 {
			e.sw.Flag(sctxMore, false)
			e.out = e.sw.Finish()
		}
		e.rcPrevJob = nil // release the last retained frame pair
	}
	return e.werr
}

// Reconstruction returns the most recent reconstructed frame (the decoder
// will produce exactly this), or nil before any frame is encoded.
func (e *Encoder) Reconstruction() *frame.Frame {
	if e.recon == nil {
		return nil
	}
	return e.recon.Clone()
}

// frameJob carries one analysed frame from phase 1 (analysis) to phase 2
// (entropy coding). Everything the write phase needs is captured here, so
// the two phases can run on different goroutines for *different* frames:
// entropy coding of frame n only reads its job, while analysis of frame
// n+1 reads the encoder's reference state — which is final once the job
// for frame n has been built (see Encoder for the overlap contract).
type frameJob struct {
	index    int            // frame number within the sequence
	src      *frame.Frame   // source frame (PSNR); must not change until written
	recon    *frame.Frame   // this frame's reconstruction (PSNR)
	results  []mbResult     // per-macroblock analysis output (pooled)
	curField *mvfield.Field // P-frames: final motion field for MVD prediction
	intra    bool
	qp       int
	// prevRef is the reference frame this job's analysis read (the
	// previous reconstruction), retired to the frame pool at this job's
	// hand-off — the first point where both its readers are provably done:
	// this job's analysis, and the previous job's write phase (PSNR).
	prevRef *frame.Frame
	// cost is the rate controller's complexity proxy (jobCost), computed
	// from the analysis results before the slab returns to the pool. It is
	// worker-invariant, so predicted bits — and with them every quantiser
	// decision — are identical for every Workers/Pool/Pipeline setting.
	cost int
	// wroteBits is the frame's actual encoded size, filled in by the write
	// phase. In pipelined encodes it is owned by the writer goroutine and
	// may be read by the analysis side only after the *next* job's hand-off.
	wroteBits int
}

// jobCost computes the rate controller's complexity proxy for an analysed
// frame: the number of nonzero quantised coefficients plus small fixed
// charges for headers, modes and motion vectors. It is a pure function of
// the (worker-invariant) analysis results, never of scheduling, which is
// what keeps rate-controlled bitstreams byte-identical across every
// Workers, Pool and Pipeline configuration.
func jobCost(results []mbResult) int {
	cost := 0
	for i := range results {
		r := &results[i]
		switch r.mode {
		case mbSkip:
			cost++
			continue
		case mbIntra:
			cost += 8 // mode flags + six 8-bit DC terms
		case mbInter:
			cost += 8 // COD/mode flags + CBP + one MVD pair
		}
		for b := range r.levels {
			if !r.coded[b] {
				continue
			}
			for _, c := range r.levels[b] {
				if c != 0 {
					cost++
				}
			}
		}
	}
	return cost
}

// analyzeFrameJob runs phase 1 for f: motion estimation, mode decision,
// transform/quantisation and reconstruction for every macroblock, then
// installs the new reconstruction as the prediction reference. It touches
// no entropy state.
func (e *Encoder) analyzeFrameJob(f *frame.Frame) (*frameJob, error) {
	if e.frames == 0 {
		if err := validateSize(f.Size()); err != nil {
			return nil, err
		}
		e.size = f.Size()
	} else if f.Size() != e.size {
		return nil, fmt.Errorf("codec: frame size changed from %v to %v", e.size, f.Size())
	}
	base := e.cfg.Qp
	if e.rc != nil {
		base = e.rc.currentQp()
	}
	e.curQp = dct.ClampQp(base + e.qpOffset)
	start := time.Now()
	intra := e.frames == 0 ||
		(e.cfg.IntraPeriod > 0 && e.frames%e.cfg.IntraPeriod == 0)
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	j := &frameJob{index: e.frames, src: f, intra: intra, qp: e.curQp, prevRef: e.recon}
	// The reconstruction is drawn (unzeroed) from the size-bucketed frame
	// pool: analysis writes every visible sample macroblock by macroblock,
	// and refreshReference replicates the apron, so no stale byte survives.
	recon := frame.GetFramePadded(e.size, e.lumaApron, e.chromaApron)
	j.results = getMBResults(cols * rows)
	if intra {
		e.analyzeFrame(f, recon, nil, j.results, true)
		e.refreshReference(recon)
		e.prevField = mvfield.NewField(cols, rows) // all-zero motion
	} else {
		j.curField = mvfield.NewField(cols, rows)
		e.analyzeFrame(f, recon, j.curField, j.results, false)
		e.refreshReference(recon)
		e.prevField = j.curField
	}
	j.recon = e.recon
	if e.rc != nil {
		j.cost = jobCost(j.results)
	}
	e.frames++
	wall := time.Since(start)
	e.analysisTime += wall
	if ob := e.cfg.Observer; ob != nil {
		ob.FrameAnalyzed(j.index, wall,
			time.Duration(e.obsWaitNs.Swap(0)), time.Duration(e.obsStallNs.Swap(0)),
			j.intra, j.qp)
	}
	return j, nil
}

// frameHandoff runs on the session goroutine once job j's write has
// begun (overlapped: the writer accepted it) or finished (inline) —
// either way the previous job's write phase is complete (see Encoder):
//
//   - The reference frame j's analysis read (j.prevRef) is retired to the
//     frame pool: its last readers were j's analysis and the previous
//     job's PSNR statistics.
//   - The frame-lag rate controller settles the previous job's actual
//     size and plans the next quantiser — from exactly the information an
//     overlapped encode has at this point, even where the inline one
//     already knows j's size, which is what keeps rate-controlled output
//     byte-identical across both.
func (e *Encoder) frameHandoff(j *frameJob) {
	if j.prevRef != nil {
		j.prevRef.Release()
		j.prevRef = nil
	}
	if e.rc == nil {
		return
	}
	if j.index > 0 {
		prevBits := 0
		if e.rcPrevJob != nil {
			prevBits = e.rcPrevJob.wroteBits
		}
		e.rc.settle(prevBits)
	}
	e.rc.plan(j.intra, j.cost)
	e.rcPrevJob = j
}

// writeFrame runs phase 2 for an analysed frame: the serial entropy coding
// of the stored results, bit accounting and PSNR statistics, in the
// session's framing — into the one contiguous stream (sequence header
// before frame 0, a continuation flag per frame), or into a fresh syntax
// writer per frame whose bytes leave as an independently parseable packet
// (the header packet first). Jobs must be written in frame order. On a
// poisoned session the job is dropped.
func (e *Encoder) writeFrame(j *frameJob) {
	packets := e.emit != nil
	if e.werr == nil && packets && j.index == 0 {
		e.fail(e.emit(Packet{Index: 0, Data: e.headerPacket()}))
	}
	if e.werr != nil {
		putMBResults(j.results)
		j.results = nil
		return
	}
	start := time.Now()
	startBits := 0
	if packets {
		e.sw = newSymWriter(e.cfg.Entropy)
		e.sw.BeginData()
	} else {
		if j.index == 0 {
			e.writeSequenceHeader()
		}
		startBits = e.sw.Len()
		e.sw.Flag(sctxMore, true)
	}
	fs := e.writeFrameBody(j)
	var pkt []byte
	if packets {
		pkt = e.sw.Finish()
		fs.Bits = 8 * len(pkt)
	} else {
		fs.Bits = e.sw.Len() - startBits
	}
	fs.Qp = j.qp
	j.wroteBits = fs.Bits
	wall := time.Since(start)
	e.entropyTime += wall
	if ob := e.cfg.Observer; ob != nil {
		ob.FrameWritten(j.index, wall, fs.Bits)
	}

	fs.PSNRY, fs.PSNRCb, fs.PSNRCr = jobPSNR(j)

	e.stats.Frames = append(e.stats.Frames, fs)
	if packets {
		e.fail(e.emit(Packet{Index: j.index + 1, Data: pkt, Stats: fs}))
	}
}

// fail records an emit error — the session's first: writeFrame never emits
// on a poisoned session — and publishes it.
func (e *Encoder) fail(err error) {
	if err != nil {
		e.werr = err
		e.failed.Store(true)
	}
}

// jobPSNR returns the component PSNRs of j's reconstruction against its
// source. The squared error is summed by the dispatched block kernel
// rather than frame.MSE's scalar loop; the sum is the same integer and
// frame.PSNRFromSSE is the arithmetic frame.PSNR applies to it, so the
// statistics are bit-equal to frame.PSNR's (TestJobPSNRMatchesFramePSNR).
func jobPSNR(j *frameJob) (y, cb, cr float64) {
	psnr := func(a, b *frame.Plane) float64 {
		return frame.PSNRFromSSE(int64(metrics.SSE(a, 0, 0, b, 0, 0, a.W, a.H)), a.W*a.H)
	}
	return psnr(j.src.Y, j.recon.Y), psnr(j.src.Cb, j.recon.Cb), psnr(j.src.Cr, j.recon.Cr)
}

// writeFrameBody serialises the frame header and every macroblock of j,
// returning the type and macroblock-mode statistics. The results slab is
// returned to the pool.
func (e *Encoder) writeFrameBody(j *frameJob) FrameStats {
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	fs := FrameStats{Macroblocks: cols * rows}
	if j.intra {
		fs.Type = IFrame
		fs.IntraMBs = cols * rows
		e.writeFrameHeader(IFrame, j.qp)
		for i := range j.results {
			e.writeIntraMB(&j.results[i])
		}
	} else {
		fs.Type = PFrame
		e.writeFrameHeader(PFrame, j.qp)
		for mby := 0; mby < rows; mby++ {
			for mbx := 0; mbx < cols; mbx++ {
				r := &j.results[mby*cols+mbx]
				e.writeInterMB(r, j.curField, mbx, mby)
				fs.SearchPoints += r.points
				switch r.class {
				case search.ClassEasy:
					fs.EasyBlocks++
				case search.ClassGoodMatch:
					fs.GoodMatchBlocks++
				case search.ClassCritical:
					fs.CriticalBlocks++
				}
				switch r.mode {
				case mbSkip:
					fs.SkipMBs++
				case mbInter:
					fs.InterMBs++
				case mbIntra:
					fs.IntraMBs++
					continue
				}
				fs.GatedBlocks += r.gated
				fs.TransformedBlocks += len(r.coded) - r.gated
				fs.RowOnlyBlocks += r.rowOnly
				for _, c := range r.coded {
					if c {
						fs.CodedBlocks++
					}
				}
			}
		}
	}
	putMBResults(j.results)
	j.results = nil
	return fs
}

// EncodeFrame appends one frame to the stream and returns its statistics.
// With Config.Pipeline it returns once analysis is complete — the frame's
// bits may still be in flight on the writer goroutine — and the statistics
// are the zero value; read them from Stats after Bitstream.
func (e *Encoder) EncodeFrame(f *frame.Frame) (FrameStats, error) {
	j, err := e.encode(f, nil)
	if err != nil || e.jobs != nil {
		return FrameStats{}, err
	}
	return e.stats.Frames[j.index], nil
}

// encode is the engine step every driver runs per frame: refuse a
// finalised or poisoned session, apply a pending actuation, analyse, hand
// the job to phase 2 (inline, or to the writer goroutine) and run the
// hand-off protocol. seed is the cross-layer motion seed for this frame's
// analysis (ladder rungs below the top; nil elsewhere). The returned job's
// curField is final and read-only.
func (e *Encoder) encode(f *frame.Frame, seed search.LayerSeed) (*frameJob, error) {
	if e.finished {
		return nil, fmt.Errorf("codec: encoder finalised; cannot add frames")
	}
	if e.failed.Load() {
		return nil, e.werr
	}
	if a := e.pending.Swap(nil); a != nil {
		e.applyActuation(*a)
	}
	e.curSeed = seed
	j, err := e.analyzeFrameJob(f)
	e.curSeed = nil
	if err != nil {
		return nil, err
	}
	if e.jobs != nil {
		e.jobs <- j
	} else {
		e.writeFrame(j)
	}
	e.frameHandoff(j)
	// An inline emit failure surfaces on the frame that hit it; an
	// overlapped one on whichever later step first observes it.
	if e.failed.Load() {
		return nil, e.werr
	}
	return j, nil
}

func (e *Encoder) writeSequenceHeader() {
	e.sw.RawHeader(Magic, 32)
	e.sw.UEHeader(uint32(e.size.W / 16))
	e.sw.UEHeader(uint32(e.size.H / 16))
	e.sw.RawHeader(uint64(e.cfg.Entropy), 1)
	e.sw.BeginData()
}

func (e *Encoder) writeFrameHeader(t FrameType, qp int) {
	if t == IFrame {
		e.sw.Bits(0, 1)
	} else {
		e.sw.Bits(1, 1)
	}
	e.sw.Bits(uint64(qp), 5)
	e.sw.Bits(0, 1) // reserved, always 0: the decoder refuses a set bit
}

// writeCoeffs serialises a block's quantised levels as (run, level, last)
// events over the zig-zag scan. The block must have ≥1 non-zero level.
func writeCoeffs(sw symWriter, b *dct.Block) {
	var scan [64]int32
	dct.Scan(&scan, b)
	lastNZ := -1
	for i, c := range scan {
		if c != 0 {
			lastNZ = i
		}
	}
	if lastNZ < 0 {
		panic("codec: writeCoeffs on an all-zero block")
	}
	run := 0
	for i := 0; i <= lastNZ; i++ {
		c := scan[i]
		if c == 0 {
			run++
			continue
		}
		sw.RunLevelLast(uint32(run), c, i == lastNZ)
		run = 0
	}
}

// refreshReference installs recon as the prediction reference: the plane
// aprons are replicated — the once-per-frame moment border memory is
// refreshed, after which analysis of the next frame may read the apron
// freely. That is all a reference needs: motion search and compensation
// both compute half-pel samples from these planes on demand.
func (e *Encoder) refreshReference(recon *frame.Frame) {
	recon.ReplicateAprons()
	e.recon = recon
}

// analyzeIntraMB transforms, quantises and reconstructs the six intra
// blocks of MB (mbx, mby), leaving the levels — and the per-block AC-coded
// flags, so the write phase never re-scans the coefficients — in r.
//
// The transform is the inter survivors' route: the row pass from the
// kernel table (metrics.ResidualRows of the samples against zeroBlock,
// into the lane's scratch), then metrics.ColQuant's intra rule
// (dct.QuantizeIntraRows on the kernel table), which runs column 0 (it
// holds DC) and only the AC columns whose row-pass energy exceeds
// dct.IntraZeroBound. The levels are Forward + QuantizeIntra's. The
// reconstruction is metrics.InverseAdd over zeroBlock, as the decoder's.
func (e *Encoder) analyzeIntraMB(sc *mbScratch, src, recon *frame.Frame, mbx, mby int, r *mbResult) {
	r.mode = mbIntra
	r.points, r.class = 0, search.Unclassified
	for i := range r.levels {
		p, x, y := mbBlock(src, mbx, mby, i)
		metrics.ResidualRows(&sc.rows, p, x, y, zeroBlock, 0, 0)
		r.coded[i], _ = metrics.ColQuant(&r.levels[i], &sc.rows, e.curQp, true)
		rp, _, _ := mbBlock(recon, mbx, mby, i)
		metrics.InverseAdd(rp, x, y, zeroBlock, 0, 0, &r.levels[i], e.curQp, true)
	}
}

// writeIntraMB serialises the six intra blocks analysed into r. DC is an
// 8-bit FLC and AC are TCOEF events behind a coded flag, mirroring the
// H.263 INTRADC + TCOEF structure. The AC-coded flags were computed during
// analysis (r.coded).
func (e *Encoder) writeIntraMB(r *mbResult) {
	for i := range r.levels {
		levels := &r.levels[i]
		e.sw.Bits(uint64(levels[0]), 8)
		if r.coded[i] {
			e.sw.Flag(sctxACFlag, true)
			ac := *levels
			ac[0] = 0
			writeCoeffs(e.sw, &ac)
		} else {
			e.sw.Flag(sctxACFlag, false)
		}
	}
}

// analyzeInterMB performs motion estimation, mode decision, residual
// coding and reconstruction for one P-frame macroblock, recording the
// outcome in r. It must observe only the left/up-left/up/up-right
// neighbours of curField (the wavefront invariant parallel.go schedules
// around) and may write solely to its own MB region of recon, its own
// curField entry, and r. The caller supplies a per-worker scratch (sc),
// reused across macroblocks so analysis never allocates.
func (e *Encoder) analyzeInterMB(s search.Searcher, sc *mbScratch, src, recon *frame.Frame, curField *mvfield.Field, mbx, mby int, r *mbResult) {
	x, y := 16*mbx, 16*mby
	// The block's internal variation decides intra against inter below
	// and is ACBM's evidence for conditions 1–2: computed once, here, and
	// handed to the searcher.
	intraSAD := metrics.IntraSAD(src.Y, x, y, 16, 16)
	sc.in = search.Input{
		Cur: src.Y, Ref: e.recon.Y,
		BX: x, BY: y, W: 16, H: 16,
		Range: e.cfg.SearchRange, Qp: e.curQp,
		CurField: curField, PrevField: e.prevField,
		MBX: mbx, MBY: mby,
		Seed:     e.curSeed,
		IntraSAD: intraSAD, HasIntraSAD: true,
	}
	res := s.Search(&sc.in)

	// Mode decision (TMN-style): intra wins when the block's internal
	// variation is clearly below the best matching error.
	if intraSAD < res.SAD-e.cfg.IntraBias {
		e.analyzeIntraMB(sc, src, recon, mbx, mby, r)
		r.points, r.class = res.Points, res.Class
		curField.Set(mbx, mby, mvfield.Zero)
		return
	}

	// Code and reconstruct all six blocks, then let the skip decision see
	// the coded-block pattern. Reconstruction need not wait for it: a
	// skipped macroblock has no coded block, so each block's
	// reconstruction — its prediction — is the same either way.
	e.codeInterBlocks(sc, r, src, recon, mbx, mby, res.MV)

	r.points, r.class = res.Points, res.Class
	r.mv = res.MV
	if r.mv == mvfield.Zero && r.coded == [6]bool{} {
		r.mode = mbSkip
	} else {
		r.mode = mbInter
	}
	curField.Set(mbx, mby, r.mv)
}

// writeInterMB serialises one analysed P-frame macroblock. The median MV
// predictor reads only causal (left/up/up-right) field entries, whose
// values are final after analysis, so the emitted symbols match the
// seed's interleaved encoder exactly.
func (e *Encoder) writeInterMB(r *mbResult, curField *mvfield.Field, mbx, mby int) {
	switch r.mode {
	case mbSkip:
		e.sw.Flag(sctxCOD, true)
		return
	case mbIntra:
		e.sw.Flag(sctxCOD, false) // coded
		e.sw.Flag(sctxMode, true) // intra
		e.writeIntraMB(r)
		return
	}
	e.sw.Flag(sctxCOD, false)     // coded
	e.sw.Flag(sctxMode, false)    // inter
	e.sw.Flag(sctxInter4V, false) // reserved: the decoder refuses true
	d := r.mv.Sub(curField.MedianPredictor(mbx, mby))
	e.sw.MVD(int32(d.X), int32(d.Y))
	for _, c := range r.coded {
		e.sw.Flag(sctxCBP, c)
	}
	for i := range r.levels {
		if r.coded[i] {
			writeCoeffs(e.sw, &r.levels[i])
		}
	}
}

// EncodeSequence encodes frames with cfg and returns the statistics and
// the finalised bitstream, byte-identical with and without cfg.Pipeline.
func EncodeSequence(cfg Config, frames []*frame.Frame) (*SequenceStats, []byte, error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("codec: no frames to encode")
	}
	e := NewEncoder(cfg)
	for i, f := range frames {
		if _, err := e.EncodeFrame(f); err != nil {
			e.Bitstream() // joins the writer goroutine before bailing
			return nil, nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
	}
	out := e.Bitstream()
	return e.Stats(), out, nil
}
