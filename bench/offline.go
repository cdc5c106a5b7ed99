package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
)

// encoded is the outcome of one in-process encode of one cell.
type encoded struct {
	// stream is what a consumer receives: the contiguous bitstream of the
	// serial driver, or the packet payloads of the streaming one.
	stream  []byte
	packets [][]byte
	stats   *codec.SequenceStats
	acbm    core.Stats // zero unless the cell's searcher is ACBM
	// frameMs[i] is the wall time from the EncodeFrame call for frame i to
	// its coded bytes being available: the return of the serial call, or
	// the emit callback of the pipelined stream. firstMs runs from session
	// construction to the first frame's bytes.
	frameMs []float64
	// stepMs[i] is the session's progress while frame i was the newest:
	// from its EncodeFrame call to the next one (session construction
	// counts towards frame 0, finalisation towards the last frame), so the
	// steps add up to wall exactly, pipelined or not.
	stepMs   []float64
	callAt   []time.Time
	firstMs  float64
	wall     time.Duration
	analysis time.Duration
	entropy  time.Duration
}

func (e *encoded) codedBytes() int {
	if e.packets == nil {
		return len(e.stream)
	}
	n := 0
	for _, p := range e.packets {
		n += len(p)
	}
	return n
}

// encodeCell encodes frames at cell c the way workload d drives the codec.
// workers overrides d.Workers when positive (the parallel-speedup baseline).
func encodeCell(d *workloadDef, c cell, frames []*frame.Frame, ob codec.FrameObserver, workers int) (*encoded, error) {
	cfg := c.config()
	cfg.Workers, cfg.Pipeline, cfg.Observer = d.Workers, d.Pipeline, ob
	if workers > 0 {
		cfg.Workers, cfg.Pipeline = workers, false
	}
	res := &encoded{frameMs: make([]float64, len(frames)), callAt: make([]time.Time, len(frames))}
	t0 := time.Now()
	if !d.Packets {
		enc := codec.NewEncoder(cfg)
		for i, f := range frames {
			res.callAt[i] = time.Now()
			if _, err := enc.EncodeFrame(f); err != nil {
				return nil, fmt.Errorf("%v frame %d: %w", c, i, err)
			}
			now := time.Now()
			res.frameMs[i] = ms(now.Sub(res.callAt[i]))
			if i == 0 {
				res.firstMs = ms(now.Sub(t0))
			}
		}
		res.stream = enc.Bitstream()
		res.wall = time.Since(t0)
		res.stats = enc.Stats()
		res.analysis, res.entropy = enc.PhaseTimes()
	} else {
		emits := make([]time.Time, len(frames))
		res.packets = make([][]byte, 0, len(frames)+1)
		// Packet i+1 carries frame i; its emit is the moment a consumer
		// has the frame's bytes. emits[i] is written on the writer
		// goroutine and read only after Close has joined it.
		s := codec.NewEncodeStream(cfg, func(p codec.Packet) error {
			if p.Index > 0 {
				emits[p.Index-1] = time.Now()
			}
			res.packets = append(res.packets, p.Data)
			return nil
		})
		for i, f := range frames {
			res.callAt[i] = time.Now()
			if err := s.EncodeFrame(f); err != nil {
				s.Close() // joins the writer goroutine
				return nil, fmt.Errorf("%v frame %d: %w", c, i, err)
			}
		}
		stats, err := s.Close()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		res.wall = time.Since(t0)
		res.stats = stats
		res.analysis, res.entropy = s.PhaseTimes()
		for i := range frames {
			res.frameMs[i] = ms(emits[i].Sub(res.callAt[i]))
		}
		res.firstMs = ms(emits[0].Sub(t0))
	}
	res.stepMs = make([]float64, len(frames))
	from := t0
	for i := range frames {
		to := t0.Add(res.wall)
		if i+1 < len(frames) {
			to = res.callAt[i+1]
		}
		res.stepMs[i] = ms(to.Sub(from))
		from = to
	}
	if a, ok := cfg.Searcher.(*core.ACBM); ok {
		res.acbm = a.Stats()
	}
	return res, nil
}

// frameRecords frames packets as the PacketWriter records a transport
// carries, the form DecodePacketStream and the byte comparison use.
func frameRecords(packets [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	pw := codec.NewPacketWriter(&buf)
	for i, p := range packets {
		if err := pw.WritePacket(i, p); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// reference is a cell's verified encode, computed in set-up: every later
// pass and every served session must reproduce its bytes exactly.
type reference struct {
	cell    cell
	sha     [sha256.Size]byte
	enc     *encoded
	records []byte         // framed packet records (packet drivers)
	decoded []*frame.Frame // kept for the layer replay of a traced run
}

// wireBytes is the reference as one byte string: the bitstream, or the
// framed records.
func (r *reference) wireBytes() []byte {
	if r.records != nil {
		return r.records
	}
	return r.enc.stream
}

// makeReference encodes the cell once and checks the stream is correct: it
// decodes to the encoder's frame count, and each decoded frame has exactly
// the PSNR the encoder reported (the decoder reproduces the encoder's
// reconstruction bit for bit, so any difference is a codec fault).
func makeReference(d *workloadDef, c cell, frames []*frame.Frame, keepDecoded bool) (*reference, error) {
	var enc *encoded
	var err error
	if d.Backends > 0 {
		// The served bytes are defined as what the offline packet encoder
		// produces for the session's configuration.
		cfg := sessionConfig(c)
		enc = &encoded{}
		enc.packets, enc.stats, err = codec.EncodePackets(cfg, frames)
		if a, ok := cfg.Searcher.(*core.ACBM); ok && err == nil {
			enc.acbm = a.Stats()
		}
	} else {
		enc, err = encodeCell(d, c, frames, nil, 0)
	}
	if err != nil {
		return nil, err
	}
	ref := &reference{cell: c, enc: enc}
	var dec []*frame.Frame
	if enc.packets != nil {
		if ref.records, err = frameRecords(enc.packets); err != nil {
			return nil, err
		}
		res, err := codec.DecodePacketStream(bytes.NewReader(ref.records))
		if err != nil {
			return nil, fmt.Errorf("%v: reference does not decode: %w", c, err)
		}
		if res.Concealed != 0 || res.Ignored != 0 || res.Truncated != nil {
			return nil, fmt.Errorf("%v: reference decodes with damage (concealed %d, ignored %d, truncated %v)", c, res.Concealed, res.Ignored, res.Truncated)
		}
		dec = res.Frames
	} else if dec, err = codec.Decode(enc.stream); err != nil {
		return nil, fmt.Errorf("%v: reference does not decode: %w", c, err)
	}
	if len(dec) != len(frames) || len(enc.stats.Frames) != len(frames) {
		return nil, fmt.Errorf("%v: %d frames in, %d coded, %d decoded", c, len(frames), len(enc.stats.Frames), len(dec))
	}
	for i, f := range dec {
		p, err := frame.PSNR(frames[i].Y, f.Y)
		if err != nil {
			return nil, err
		}
		if want := enc.stats.Frames[i].PSNRY; p != want && !(math.IsInf(p, 1) && math.IsInf(want, 1)) {
			return nil, fmt.Errorf("%v frame %d: decoded PSNR %.6f, encoder reported %.6f", c, i, p, want)
		}
	}
	ref.sha = sha256.Sum256(ref.wireBytes())
	if keepDecoded {
		ref.decoded = dec
	}
	return ref, nil
}

// passes accumulates untraced passes over every cell of a workload.
type passes struct {
	q        *quiet
	last     []*encoded // the most recent encode of each cell
	analysis time.Duration
	entropy  time.Duration
	frames   int // frames encoded over all passes
	failed   int // frames of encodes whose stream did not match the reference
}

// pass encodes every cell once, untraced, checks each stream's SHA-256
// against the set-up reference and folds the timings into p. workers > 0
// overrides the workload's parallelism.
func (e *env) pass(p *passes, workers int) error {
	if p.q == nil {
		p.q, p.last = newQuiet(len(e.d.Cells), false), make([]*encoded, len(e.d.Cells))
	}
	for i, c := range e.d.Cells {
		frames := e.clips.frames[c.Profile]
		e.speed.sample()
		enc, err := encodeCell(e.d, c, frames, nil, workers)
		if err != nil {
			return err
		}
		// Hashing and bookkeeping sit outside the timed region.
		wire := enc.stream
		if enc.packets != nil {
			if wire, err = frameRecords(enc.packets); err != nil {
				return err
			}
		}
		if sha256.Sum256(wire) != e.refs[i].sha {
			p.failed += len(frames)
		}
		p.frames += len(frames)
		p.analysis += enc.analysis
		p.entropy += enc.entropy
		p.q.observe(i, enc.frameMs, enc.stepMs, enc.firstMs, enc.wall)
		p.last[i] = enc
	}
	return nil
}

// fps is the workload's throughput with the host's disturbance removed.
func (e *env) fps(p *passes) float64 {
	return float64(len(e.d.Cells)*e.d.Frames) / p.q.sessionSeconds()
}

// run repeats pass until d has gone by, and at least atLeast times.
func (e *env) run(p *passes, workers, atLeast int, d time.Duration) error {
	start := time.Now()
	for n := 0; n < atLeast || time.Since(start) < d; n++ {
		if err := e.pass(p, workers); err != nil {
			return err
		}
	}
	return nil
}

// measureInProcess is the untraced measurement of an in-process workload.
func (e *env) measureInProcess(res *runResult, seconds float64) error {
	p := &passes{}
	e.speed = &hostSpeed{}
	if err := e.run(p, 0, 3, time.Duration(seconds*float64(time.Second))); err != nil {
		return err
	}
	scale := e.speed.atLeast()
	var bytes int
	var psnr float64
	for _, enc := range p.last {
		bytes += enc.codedBytes()
		psnr += enc.stats.AvgPSNRY()
	}
	res.Attempted, res.Failed = p.frames, p.failed
	res.set("frames_per_s", e.fps(p)/scale)
	p.q.report(res, scale)
	res.set("bytes_per_frame", float64(bytes)/float64(len(e.d.Cells)*e.d.Frames))
	res.set("psnr_y_db", psnr/float64(len(p.last)))
	return nil
}
