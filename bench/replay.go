package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bitstream"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/entropy"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// The layer profile. The PR that defines the benchmark may not touch the
// program, so every layer is measured from outside: by timing calls into
// the layers' public functions on data taken from the workload (the
// replay below), and by reading the signals the program already publishes
// (PhaseTimes, Config.Observer, ACBM.Stats, InterpFillStats, PoolStats).

const searchRange = codec.DefaultSearchRange

// spiral lists the full-pel candidates of a ±searchRange window centre
// outward, ties in raster order — the scan order of search.FSBM, which
// keeps its own list private.
var spiral = func() []mvfield.MV {
	var offs []mvfield.MV
	for v := -searchRange; v <= searchRange; v++ {
		for u := -searchRange; u <= searchRange; u++ {
			offs = append(offs, mvfield.FromFullPel(u, v))
		}
	}
	sort.SliceStable(offs, func(i, j int) bool { return offs[i].L1() < offs[j].L1() })
	return offs
}()

// probes are the fixed displacements (full pels) the uncapped SAD kernel is
// replayed at, besides whatever else is legal for the block.
var probes = [][2]int{{0, 0}, {3, -2}, {-5, 4}, {7, 6}}

// fieldPair is the motion-field context a replayed searcher sees: the bench
// maintains it exactly as the encoder does, one chain per searcher.
type fieldPair struct{ cur, prev *mvfield.Field }

func (p *fieldPair) next(cols, rows int) {
	p.prev, p.cur = p.cur, mvfield.NewField(cols, rows)
}

// replayer re-runs each layer's public entry points on one cell's frame
// pairs: cur is the source luma of frame n, ref the reconstruction of frame
// n-1 (the decoded reference stream, which is the encoder's reconstruction
// bit for bit).
type replayer struct {
	tr         *tracer
	c          cell
	cols, rows int
	fsbm       search.FSBM
	pbm        search.PBM
	acbm       *core.ACBM
	ff, fp, fa fieldPair
	padded     *frame.Frame // ref with the encoder's aprons
	residual   []dct.Block
	levels     []dct.Block
	w          bitstream.Writer
	replayCounts
}

// replayCounts is what a replay learns that its spans do not carry.
type replayCounts struct {
	fsbmPoints, pbmPoints     int64
	blocksTried, blocksCoded  int64
	bits                      int64
	ownSearchNs               int64 // time in the cell's own searcher, for codec.unattributed_share
	replayedFrames, replayMBs int64
}

func (r *replayCounts) add(o replayCounts) {
	r.fsbmPoints += o.fsbmPoints
	r.pbmPoints += o.pbmPoints
	r.blocksTried += o.blocksTried
	r.blocksCoded += o.blocksCoded
	r.bits += o.bits
	r.ownSearchNs += o.ownSearchNs
	r.replayedFrames += o.replayedFrames
	r.replayMBs += o.replayMBs
}

func newReplayer(tr *tracer, c cell, size frame.Size) *replayer {
	lumaApron := searchRange + 1
	return &replayer{
		tr: tr, c: c,
		cols: size.MacroblockCols(), rows: size.MacroblockRows(),
		acbm:   core.New(core.DefaultParams),
		padded: frame.GetFramePadded(size, lumaApron, lumaApron/2),
	}
}

func (r *replayer) close() { r.padded.Release() }

// timed runs fn as a child span of parent and returns its duration.
func (r *replayer) timed(name, id string, parent int, fn func() int64) int64 {
	i := r.tr.begin(name, id, parent)
	return r.tr.end(i, fn())
}

func (r *replayer) input(src, ref *frame.Plane, f fieldPair, mbx, mby int) search.Input {
	return search.Input{
		Cur: src, Ref: ref,
		BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16,
		Range: searchRange, Qp: r.c.Qp,
		CurField: f.cur, PrevField: f.prev,
		MBX: mbx, MBY: mby,
	}
}

// eachMB visits macroblocks in raster order, the order the encoder's
// serial analysis and its predictors assume.
func (r *replayer) eachMB(fn func(mbx, mby int)) {
	for mby := 0; mby < r.rows; mby++ {
		for mbx := 0; mbx < r.cols; mbx++ {
			fn(mbx, mby)
		}
	}
}

// frame replays every layer for one P-frame under a span tree rooted at
// parent. src is the source frame, ref the previous reconstruction, recon
// this frame's reconstruction.
func (r *replayer) frame(parent int, id string, src, ref, recon *frame.Frame) {
	root := r.tr.begin("replay", id, parent)
	defer func() { r.tr.end(root, 1) }()
	nMB := int64(r.cols * r.rows)
	r.replayedFrames++
	r.replayMBs += nMB
	cur := src.Y

	// frame: the reference hand-off. The encoder replicates aprons once
	// per frame; everything below reads the padded copy as it would.
	for i, p := range []*frame.Plane{ref.Y, ref.Cb, ref.Cr} {
		dst := []*frame.Plane{r.padded.Y, r.padded.Cb, r.padded.Cr}[i]
		dst.CopyBlock(0, 0, p, 0, 0, p.W, p.H)
	}
	r.timed("frame.apron", id, root, func() int64 {
		r.padded.ReplicateAprons()
		return 1
	})
	refY := r.padded.Y

	// metrics: the public kernels on this frame pair.
	in := r.input(cur, refY, fieldPair{}, 0, 0)
	var sink int
	r.timed("metrics.sad16", id, root, func() (n int64) {
		r.eachMB(func(mbx, mby int) {
			in.BX, in.BY = 16*mbx, 16*mby
			for _, p := range probes {
				if in.Legal(mvfield.FromFullPel(p[0], p[1])) {
					sink += metrics.SAD(cur, in.BX, in.BY, refY, in.BX+p[0], in.BY+p[1], 16, 16)
					n++
				}
			}
		})
		return n
	})
	r.timed("metrics.sad_capped16", id, root, func() (n int64) {
		// cap = the running minimum of a spiral scan, so early exits are
		// as frequent as inside the full search.
		r.eachMB(func(mbx, mby int) {
			in.BX, in.BY = 16*mbx, 16*mby
			best := -1
			for _, mv := range spiral {
				if !in.Legal(mv) {
					continue
				}
				fx, fy := mv.FullPel()
				n++
				if best < 0 {
					best = metrics.SAD(cur, in.BX, in.BY, refY, in.BX+fx, in.BY+fy, 16, 16)
				} else if s := metrics.SADCapped(cur, in.BX, in.BY, refY, in.BX+fx, in.BY+fy, 16, 16, best); s < best {
					best = s
				}
			}
			sink += best
		})
		return n
	})
	r.timed("metrics.sad_halfpel_ring", id, root, func() (n int64) {
		var ring [9]int
		for mby := 1; mby < r.rows-1; mby++ {
			for mbx := 1; mbx < r.cols-1; mbx++ {
				metrics.SADHalfPelRing(cur, 16*mbx, 16*mby, refY, 16*mbx, 16*mby, 16, 16, &ring)
				sink += ring[0]
				n++
			}
		}
		return n
	})
	r.timed("metrics.intra_sad16", id, root, func() int64 {
		r.eachMB(func(mbx, mby int) { sink += metrics.IntraSAD(cur, 16*mbx, 16*mby, 16, 16) })
		return nMB
	})

	// search and core: each searcher over every macroblock, with the
	// motion-field context it would have inside the encoder.
	r.ff.next(r.cols, r.rows)
	r.fp.next(r.cols, r.rows)
	r.fa.next(r.cols, r.rows)
	fsbmNs := r.timed("search.fsbm", id, root, func() int64 {
		r.eachMB(func(mbx, mby int) {
			in := r.input(cur, refY, r.ff, mbx, mby)
			res := r.fsbm.Search(&in)
			r.ff.cur.Set(mbx, mby, res.MV)
			r.fsbmPoints += int64(res.Points)
		})
		return nMB
	})
	r.timed("search.pbm", id, root, func() int64 {
		r.eachMB(func(mbx, mby int) {
			in := r.input(cur, refY, r.fp, mbx, mby)
			res := r.pbm.Search(&in)
			r.fp.cur.Set(mbx, mby, res.MV)
			r.pbmPoints += int64(res.Points)
		})
		return nMB
	})
	acbmNs := r.timed("core.acbm", id, root, func() int64 {
		r.eachMB(func(mbx, mby int) {
			in := r.input(cur, refY, r.fa, mbx, mby)
			r.fa.cur.Set(mbx, mby, r.acbm.Search(&in).MV)
		})
		return nMB
	})
	if r.c.ME == "fsbm" {
		r.ownSearchNs += fsbmNs
	} else {
		r.ownSearchNs += acbmNs
	}

	// dct and entropy: on the residual blocks this frame really has — the
	// source minus the half-pel prediction at ACBM's vectors.
	ip := frame.InterpolateLazy(refY)
	r.residual = r.residual[:0]
	var pred [64]uint8
	r.eachMB(func(mbx, mby int) {
		mv := r.fa.cur.At(mbx, mby)
		for _, off := range [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}} {
			x, y := 16*mbx+off[0], 16*mby+off[1]
			ip.Block(pred[:], 2*x+mv.X, 2*y+mv.Y, 8, 8)
			var b dct.Block
			for j := 0; j < 8; j++ {
				row := cur.Row(y + j)[x : x+8]
				for i, v := range row {
					b[8*j+i] = int32(v) - int32(pred[8*j+i])
				}
			}
			r.residual = append(r.residual, b)
		}
	})
	ip.Release()
	r.levels = r.levels[:0]
	r.blocksTried += int64(len(r.residual))
	var coef dct.Block
	r.timed("dct.fwd_quant", id, root, func() (n int64) {
		// The encoder skips the transform of an all-zero residual.
		for i := range r.residual {
			if !entropy.CodedBlock(&r.residual[i]) {
				continue
			}
			n++
			var lv dct.Block
			dct.Forward(&coef, &r.residual[i])
			dct.QuantizeInter(&lv, &coef, r.c.Qp)
			if entropy.CodedBlock(&lv) {
				r.levels = append(r.levels, lv)
			}
		}
		return n
	})
	coded := int64(len(r.levels))
	r.blocksCoded += coded
	r.timed("dct.dequant_inv", id, root, func() int64 {
		var out dct.Block
		for i := range r.levels {
			dct.DequantizeInter(&coef, &r.levels[i], r.c.Qp)
			dct.Inverse(&out, &coef)
			sink += int(out[0])
		}
		return coded
	})
	r.w.Reset()
	r.timed("entropy.write_block", id, root, func() int64 {
		for i := range r.levels {
			if err := entropy.WriteBlock(&r.w, &r.levels[i]); err != nil {
				panic(err) // every block in levels is coded by construction
			}
		}
		return coded
	})
	r.bits += int64(r.w.Len())
	data := r.w.Bytes()
	r.timed("entropy.read_block", id, root, func() int64 {
		rd := bitstream.NewReader(data)
		var out dct.Block
		for range r.levels {
			if err := entropy.ReadBlock(rd, &out); err != nil {
				panic(fmt.Sprintf("entropy: block written by WriteBlock does not read back: %v", err))
			}
		}
		return coded
	})

	// frame: a full half-pel materialisation (what a frame costs when every
	// tile is touched) and the PSNR the encoder computes per frame.
	tiles := int64(3 * r.cols * r.rows)
	r.timed("frame.halfpel_fill", id, root, func() int64 {
		ip := frame.InterpolateLazy(refY)
		for ph := 1; ph <= 3; ph++ {
			r.eachMB(func(mbx, mby int) { ip.PhaseRect(32*mbx+ph&1, 32*mby+ph>>1, 16, 16) })
		}
		ip.Release()
		return tiles
	})
	r.timed("frame.psnr", id, root, func() int64 {
		for i, p := range []*frame.Plane{src.Y, src.Cb, src.Cr} {
			v, _ := frame.PSNR(p, []*frame.Plane{recon.Y, recon.Cb, recon.Cr}[i]) // sizes match by construction
			sink += int(v)
		}
		return 1
	})
	runtime.KeepAlive(sink)
}

// phaseObserver collects the per-frame phase timings the codec reports
// through Config.Observer. FrameAnalyzed and FrameWritten run on different
// goroutines in pipelined encodes, but never for the same frame at once,
// and the slices are read only after the session has been joined.
type phaseObserver struct {
	analysis, entropy []time.Duration
	analysedAt        []time.Time
	writtenAt         []time.Time
	intra             []bool
}

func newPhaseObserver(n int) *phaseObserver {
	return &phaseObserver{
		analysis: make([]time.Duration, n), entropy: make([]time.Duration, n),
		analysedAt: make([]time.Time, n), writtenAt: make([]time.Time, n),
		intra: make([]bool, n),
	}
}

func (o *phaseObserver) FrameAnalyzed(i int, wall, _, _ time.Duration, intra bool, _ int) {
	o.analysis[i], o.analysedAt[i], o.intra[i] = wall, time.Now(), intra
}

func (o *phaseObserver) FrameWritten(i int, wall time.Duration, _ int) {
	o.entropy[i], o.writtenAt[i] = wall, time.Now()
}

// layerTotals accumulates what the traced passes learn beyond the spans.
type layerTotals struct {
	intraMs, interMs []float64
	pAnalysisNs      int64        // Σ analysis wall of P-frames
	q                *quiet       // the traced sessions' timings
	rep              replayCounts // summed over every cell's replayer
}

// tracedPass encodes every cell once with an Observer attached and spans
// around each session and frame, then replays the layers on each frame.
func (e *env) tracedPass(tr *tracer, pass int, tot *layerTotals) error {
	for ci, c := range e.d.Cells {
		frames := e.clips.frames[c.Profile]
		ref := e.refs[ci]
		id := fmt.Sprintf("p%d.%v", pass, c)
		cellSpan := tr.begin("cell", id, -1)

		ob := newPhaseObserver(len(frames))
		t0 := time.Now()
		enc, err := encodeCell(e.d, c, frames, ob, 0)
		if err != nil {
			return err
		}
		sess := tr.add("codec.session", id, cellSpan, t0, enc.wall, int64(len(frames)))
		if tot.q == nil {
			tot.q = newQuiet(len(e.d.Cells), false)
		}
		tot.q.observe(ci, enc.frameMs, enc.stepMs, enc.firstMs, enc.wall)
		for i := range frames {
			fid := fmt.Sprintf("%s.f%d", id, i)
			// The frame span runs from the EncodeFrame call to the frame's
			// bytes being available; its children are the two phases as
			// the codec itself timed them.
			fs := tr.add("codec.frame", fid, sess, enc.callAt[i], time.Duration(enc.frameMs[i]*float64(time.Millisecond)), 1)
			tr.add("codec.analysis", fid, fs, ob.analysedAt[i].Add(-ob.analysis[i]), ob.analysis[i], 1)
			tr.add("codec.entropy", fid, fs, ob.writtenAt[i].Add(-ob.entropy[i]), ob.entropy[i], 1)
			total := ms(ob.analysis[i] + ob.entropy[i])
			if ob.intra[i] {
				tot.intraMs = append(tot.intraMs, total)
			} else {
				tot.interMs = append(tot.interMs, total)
				tot.pAnalysisNs += ob.analysis[i].Nanoseconds()
			}
		}

		rp := newReplayer(tr, c, e.d.Size)
		for i := 1; i < len(frames); i++ {
			rp.frame(cellSpan, fmt.Sprintf("%s.f%d", id, i), frames[i], ref.decoded[i-1], ref.decoded[i])
		}
		rp.close()
		tot.rep.add(rp.replayCounts)

		// Per-clip layers: Y4M ingest, the read side of the codec, and the
		// packet framing a transport adds.
		if y4m := e.clips.y4m[c.Profile]; y4m != nil {
			sp := tr.begin("frame.y4m_read", id, cellSpan)
			rd, err := frame.NewY4MReader(bytes.NewReader(y4m))
			n := int64(0)
			for err == nil {
				if _, err = rd.ReadFrame(); err == nil {
					n++
				}
			}
			tr.end(sp, n)
			if n != int64(len(frames)) {
				return fmt.Errorf("%v: Y4M reader returned %d of %d frames: %v", c, n, len(frames), err)
			}
		}
		sp := tr.begin("codec.decode", id, cellSpan)
		if ref.records != nil {
			_, err = codec.DecodePacketStream(bytes.NewReader(ref.records))
		} else {
			_, err = codec.Decode(ref.enc.stream)
		}
		tr.end(sp, int64(len(frames)))
		if err != nil {
			return err
		}
		if ref.enc.packets != nil {
			sp := tr.begin("codec.packet_io", id, cellSpan)
			rec, err := frameRecords(ref.enc.packets)
			if err != nil {
				return err
			}
			rd := codec.NewPacketReader(bytes.NewReader(rec))
			n := int64(0)
			for {
				if _, _, err := rd.ReadPacket(); err != nil {
					break
				}
				n++
			}
			tr.end(sp, n)
		}
		tr.end(cellSpan, int64(len(frames)))
	}
	return nil
}

// counters snapshots the cumulative signals the program publishes, so a
// delta around untraced passes gives the workload's own figures.
type counters struct {
	mallocs, allocBytes  uint64
	tiles, tileBytes     uint64
	poolHits, poolMisses uint64
}

func readCounters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := counters{mallocs: m.Mallocs, allocBytes: m.TotalAlloc}
	c.tiles, c.tileBytes = frame.InterpFillStats()
	for _, s := range frame.PoolStats() {
		c.poolHits += s.Hits
		c.poolMisses += s.Misses
	}
	return c
}

// profileInProcess is the traced run of the in-process layers: untraced
// passes bracketed by the program's counters, the same cells at Workers=1
// when the workload is parallel, then traced passes with the layer replay.
// It fills every per-layer metric of the codec's layers; the serving
// workloads add the daemons' own signals on top.
func (e *env) profileInProcess(res *runResult, tr *tracer, seconds float64) error {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	plain := &passes{}
	before := readCounters()
	if err := e.run(plain, 0, 2, budget/4); err != nil {
		return err
	}
	after := readCounters()
	res.Attempted, res.Failed = plain.frames, plain.failed
	fr := float64(plain.frames)
	pFrames := plain.frames - plain.q.n // every session opens with one I-frame
	res.set("codec.analysis_ms_per_frame", ms(plain.analysis)/fr)
	res.set("codec.entropy_ms_per_frame", ms(plain.entropy)/fr)
	res.set("codec.allocs_per_frame", float64(after.mallocs-before.mallocs)/fr)
	res.set("codec.alloc_bytes_per_frame", float64(after.allocBytes-before.allocBytes)/fr)
	res.set("frame.halfpel_bytes_per_frame", float64(after.tileBytes-before.tileBytes)/fr)
	// Tiles possible: three phases of the luma and both chroma tilings,
	// once per P-frame.
	tilesOf := func(w, h int) int {
		return ((w + frame.TileSize - 1) / frame.TileSize) * ((h + frame.TileSize - 1) / frame.TileSize)
	}
	possible := 3 * (tilesOf(e.d.Size.W, e.d.Size.H) + 2*tilesOf(e.d.Size.W/2, e.d.Size.H/2)) * pFrames
	res.set("frame.halfpel_tile_share", ratio(float64(after.tiles-before.tiles), float64(possible)))
	hits, misses := float64(after.poolHits-before.poolHits), float64(after.poolMisses-before.poolMisses)
	res.set("frame.pool_miss_share", ratio(misses, hits+misses))
	tilesPerPFrame := ratio(float64(after.tiles-before.tiles), float64(pFrames))

	if e.d.Workers > 1 {
		serial := &passes{}
		if err := e.run(serial, 1, 2, budget/8); err != nil {
			return err
		}
		res.Attempted += serial.frames
		res.Failed += serial.failed
		res.set("codec.parallel_speedup", e.fps(plain)/e.fps(serial))
	}

	// Exact counts from the reference encodes (the streams every pass
	// reproduces): the paper's Table 1 metric and ACBM's classification.
	var acbm core.Stats
	var pts, acbmCells float64
	for _, r := range e.refs {
		if r.cell.ME == "acbm" {
			acbm.Add(r.enc.acbm)
			pts += r.enc.stats.AvgSearchPointsPerMB()
			acbmCells++
		}
	}
	res.set("core.points_per_mb", ratio(pts, acbmCells))
	res.set("core.easy_share", ratio(float64(acbm.Easy), float64(acbm.Blocks)))
	res.set("core.goodmatch_share", ratio(float64(acbm.GoodMatch), float64(acbm.Blocks)))
	res.set("core.critical_share", ratio(float64(acbm.CriticalCnt), float64(acbm.Blocks)))

	tot := &layerTotals{}
	for n := 0; n < 1 || time.Since(start) < budget; n++ {
		if err := e.tracedPass(tr, n, tot); err != nil {
			return err
		}
	}
	rp := &tot.rep
	res.set("metrics.sad16_ns", tr.perUnit("metrics.sad16"))
	res.set("metrics.sad_capped16_ns", tr.perUnit("metrics.sad_capped16"))
	res.set("metrics.sad_halfpel_ring_ns", tr.perUnit("metrics.sad_halfpel_ring"))
	res.set("metrics.intra_sad16_ns", tr.perUnit("metrics.intra_sad16"))
	fsbmNs, _ := tr.total("search.fsbm")
	res.set("search.fsbm_ns_per_block", tr.perUnit("search.fsbm"))
	res.set("search.fsbm_points_per_block", ratio(float64(rp.fsbmPoints), float64(rp.replayMBs)))
	res.set("search.pbm_ns_per_block", tr.perUnit("search.pbm"))
	res.set("search.pbm_points_per_block", ratio(float64(rp.pbmPoints), float64(rp.replayMBs)))
	// What a candidate costs inside the searcher beyond the kernel itself:
	// legality, dispatch and the call chain.
	res.set("search.fsbm_overhead_ns_per_point", ratio(float64(fsbmNs), float64(rp.fsbmPoints))-tr.perUnit("metrics.sad_capped16"))
	res.set("core.acbm_ns_per_block", tr.perUnit("core.acbm"))
	res.set("dct.fwd_quant_ns_per_block", tr.perUnit("dct.fwd_quant"))
	res.set("dct.dequant_inv_ns_per_block", tr.perUnit("dct.dequant_inv"))
	res.set("dct.coded_block_share", ratio(float64(rp.blocksCoded), float64(rp.blocksTried)))
	res.set("entropy.write_block_ns", tr.perUnit("entropy.write_block"))
	res.set("entropy.read_block_ns", tr.perUnit("entropy.read_block"))
	res.set("entropy.bits_per_block", ratio(float64(rp.bits), float64(rp.blocksCoded)))
	res.set("frame.halfpel_fill_ns_per_tile", tr.perUnit("frame.halfpel_fill"))
	res.set("frame.apron_ns_per_frame", tr.perUnit("frame.apron"))
	res.set("frame.psnr_ns_per_frame", tr.perUnit("frame.psnr"))
	res.set("frame.y4m_read_ns_per_frame", tr.perUnit("frame.y4m_read"))
	res.set("codec.intra_frame_ms", mean(tot.intraMs))
	res.set("codec.inter_frame_ms", mean(tot.interMs))
	res.set("codec.decode_ms_per_frame", tr.perUnit("codec.decode")/1e6)
	res.set("codec.packet_io_ns_per_packet", tr.perUnit("codec.packet_io"))

	// What the outside view cannot explain of the P-frame analysis time:
	// the cell's own searcher, the transforms (luma replayed; chroma adds
	// half as many blocks again), the half-pel tiles the encoder really
	// filled and the apron refresh, against the analysis wall the codec
	// reported times the workers that shared it.
	fwdNs, _ := tr.total("dct.fwd_quant")
	invNs, _ := tr.total("dct.dequant_inv")
	apronNs, _ := tr.total("frame.apron")
	attributed := float64(rp.ownSearchNs) + 1.5*float64(fwdNs+invNs) + float64(apronNs) +
		tilesPerPFrame*float64(rp.replayedFrames)*tr.perUnit("frame.halfpel_fill")
	res.set("codec.unattributed_share", 1-ratio(attributed, float64(tot.pAnalysisNs)*float64(e.d.Workers)))

	// Tracing overhead on the thing being measured: encode throughput with
	// the Observer attached and the replay evicting caches in between,
	// against the untraced passes of this same run.
	res.set("bench.trace_overhead_share", 1-e.fps(&passes{q: tot.q})/e.fps(plain))
	res.set("bench.clipgen_ms_per_frame", ms(e.clips.genDur)/float64(e.clips.genN))
	return nil
}
