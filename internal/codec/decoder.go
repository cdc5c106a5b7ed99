package codec

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/mvfield"
)

// Decoder reconstructs frames from a bitstream produced by Encoder. Its
// output is bit-identical to the encoder's reconstruction loop.
type Decoder struct {
	sr      symReader
	size    frame.Size
	mode    EntropyMode
	pending bool // a continuation flag has been consumed and a frame follows
	eos     bool
	err     error

	recon *frame.Frame
}

// NewDecoder parses the sequence header of data.
func NewDecoder(data []byte) (*Decoder, error) {
	r := bitstream.NewReader(data)
	magic, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("codec: bad magic %#x", magic)
	}
	var sr symReader
	// Peek the header with a shared bitstream reader; the backend is
	// selected by the mode bit that terminates the header.
	eg := &egReader{r: r}
	cols, err := eg.UEHeader()
	if err != nil {
		return nil, fmt.Errorf("codec: reading width: %w", err)
	}
	rows, err := eg.UEHeader()
	if err != nil {
		return nil, fmt.Errorf("codec: reading height: %w", err)
	}
	modeBit, err := r.ReadBits(1)
	if err != nil {
		return nil, fmt.Errorf("codec: reading entropy mode: %w", err)
	}
	if cols == 0 || rows == 0 || cols > 1<<10 || rows > 1<<10 {
		return nil, fmt.Errorf("codec: implausible size %dx%d macroblocks", cols, rows)
	}
	mode := EntropyMode(modeBit)
	switch mode {
	case EntropyExpGolomb:
		sr = eg
	case EntropyArith:
		ar := &arithReader{r: r, data: data}
		if err := ar.BeginData(); err != nil {
			return nil, err
		}
		sr = ar
	}
	return &Decoder{
		sr:   sr,
		mode: mode,
		size: frame.Size{W: 16 * int(cols), H: 16 * int(rows)},
	}, nil
}

// Size returns the decoded frame format.
func (d *Decoder) Size() frame.Size { return d.size }

// EntropyMode returns the stream's entropy backend.
func (d *Decoder) EntropyMode() EntropyMode { return d.mode }

// More reports whether another frame follows (consuming the continuation
// flag). Errors while reading the flag surface from the next DecodeFrame.
func (d *Decoder) More() bool {
	if d.eos || d.err != nil {
		return false
	}
	if d.pending {
		return true
	}
	more, err := d.sr.Flag(sctxMore)
	if err != nil {
		d.err = fmt.Errorf("codec: reading continuation flag: %w", err)
		return false
	}
	if !more {
		d.eos = true
		return false
	}
	d.pending = true
	return true
}

// DecodeFrame reconstructs the next frame.
func (d *Decoder) DecodeFrame() (*frame.Frame, error) {
	if !d.More() {
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("codec: no more frames")
	}
	d.pending = false
	tbit, err := d.sr.Bits(1)
	if err != nil {
		return nil, fmt.Errorf("codec: reading frame type: %w", err)
	}
	qpBits, err := d.sr.Bits(5)
	if err != nil {
		return nil, fmt.Errorf("codec: reading Qp: %w", err)
	}
	qp := int(qpBits)
	if qp < dct.MinQp || qp > dct.MaxQp {
		return nil, fmt.Errorf("codec: illegal Qp %d", qp)
	}
	reserved, err := d.sr.Bits(1)
	if err != nil {
		return nil, fmt.Errorf("codec: reading reserved frame-header bit: %w", err)
	}
	if reserved != 0 {
		return nil, fmt.Errorf("codec: reserved frame-header bit set (deblocking is not supported)")
	}
	if tbit == 0 {
		return d.decodeIntraFrame(qp)
	}
	if d.recon == nil {
		return nil, fmt.Errorf("codec: P-frame before any I-frame")
	}
	return d.decodeInterFrame(qp)
}

// DecodeAll reconstructs every remaining frame.
func (d *Decoder) DecodeAll() ([]*frame.Frame, error) {
	var out []*frame.Frame
	for d.More() {
		f, err := d.DecodeFrame()
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
	if d.err != nil {
		return out, d.err
	}
	return out, nil
}

// Decode is a convenience wrapper decoding a whole stream.
func Decode(data []byte) ([]*frame.Frame, error) {
	d, err := NewDecoder(data)
	if err != nil {
		return nil, err
	}
	return d.DecodeAll()
}

// newRecon draws a reconstruction frame for decoding from the
// size-bucketed pool. The decoder writes every visible sample before the
// frame is read (every macroblock mode stores its full reconstruction),
// so the unspecified pool contents never leak into output. The apron is
// the minimum the half-pel interpolation needs: the decoder performs no
// motion search.
func (d *Decoder) newRecon() *frame.Frame {
	return frame.GetFramePadded(d.size, frame.MinInterpApron, frame.MinInterpApron)
}

// refreshReference mirrors the encoder: replicate the plane aprons,
// install the frame as the reference, and retire the previous reference
// to the frame pool (callers only ever receive clones, so nothing
// references it).
func (d *Decoder) refreshReference(recon *frame.Frame) {
	recon.ReplicateAprons()
	old := d.recon
	d.recon = recon
	old.Release()
}

// readCoeffs parses (run, level, last) events into b (raster order).
func readCoeffs(sr symReader, b *dct.Block) error {
	var scan [64]int32
	pos := 0
	for {
		run, err := sr.UE(sctxRun)
		if err != nil {
			return err
		}
		level, err := sr.SE(sctxLevel)
		if err != nil {
			return err
		}
		last, err := sr.Flag(sctxLast)
		if err != nil {
			return err
		}
		pos += int(run)
		if pos >= 64 {
			return fmt.Errorf("codec: TCOEF run overflows block (pos %d)", pos)
		}
		if level == 0 {
			return fmt.Errorf("codec: zero level in TCOEF event")
		}
		scan[pos] = level
		pos++
		if last {
			break
		}
	}
	dct.Unscan(b, &scan)
	return nil
}

func (d *Decoder) decodeIntraFrame(qp int) (*frame.Frame, error) {
	recon := d.newRecon()
	cols, rows := d.size.MacroblockCols(), d.size.MacroblockRows()
	for mby := 0; mby < rows; mby++ {
		for mbx := 0; mbx < cols; mbx++ {
			if err := d.decodeIntraMB(recon, qp, mbx, mby); err != nil {
				recon.Release() // partially decoded, never escapes
				return nil, fmt.Errorf("codec: intra MB (%d,%d): %w", mbx, mby, err)
			}
		}
	}
	d.refreshReference(recon)
	return recon.Clone(), nil
}

func (d *Decoder) decodeIntraMB(recon *frame.Frame, qp, mbx, mby int) error {
	x, y := 16*mbx, 16*mby
	var levels, rec dct.Block
	decode := func(p *frame.Plane, bx, by int) error {
		if err := d.readIntraBlock(&levels); err != nil {
			return err
		}
		reconIntraBlock(&rec, &levels, qp)
		storeBlock(p, bx, by, &rec)
		return nil
	}
	for _, off := range lumaBlockOffsets {
		if err := decode(recon.Y, x+off[0], y+off[1]); err != nil {
			return err
		}
	}
	if err := decode(recon.Cb, 8*mbx, 8*mby); err != nil {
		return err
	}
	return decode(recon.Cr, 8*mbx, 8*mby)
}

func (d *Decoder) readIntraBlock(levels *dct.Block) error {
	dc, err := d.sr.Bits(8)
	if err != nil {
		return err
	}
	acFlag, err := d.sr.Flag(sctxACFlag)
	if err != nil {
		return err
	}
	*levels = dct.Block{}
	if acFlag {
		if err := readCoeffs(d.sr, levels); err != nil {
			return err
		}
		if levels[0] != 0 {
			return fmt.Errorf("codec: intra AC events set the DC coefficient")
		}
	}
	levels[0] = int32(dc)
	return nil
}

func (d *Decoder) decodeInterFrame(qp int) (*frame.Frame, error) {
	recon := d.newRecon()
	cols, rows := d.size.MacroblockCols(), d.size.MacroblockRows()
	curField := mvfield.NewField(cols, rows)
	for mby := 0; mby < rows; mby++ {
		for mbx := 0; mbx < cols; mbx++ {
			if err := d.decodeInterMB(recon, curField, qp, mbx, mby); err != nil {
				recon.Release() // partially decoded, never escapes
				return nil, fmt.Errorf("codec: inter MB (%d,%d): %w", mbx, mby, err)
			}
		}
	}
	d.refreshReference(recon)
	return recon.Clone(), nil
}

func (d *Decoder) decodeInterMB(recon *frame.Frame, curField *mvfield.Field, qp, mbx, mby int) error {
	cod, err := d.sr.Flag(sctxCOD)
	if err != nil {
		return err
	}
	if cod { // skip: the reconstruction is the zero-MV prediction
		predictInterMB(recon, d.recon, mbx, mby, mvfield.Zero)
		curField.Set(mbx, mby, mvfield.Zero)
		return nil
	}
	intraBit, err := d.sr.Flag(sctxMode)
	if err != nil {
		return err
	}
	if intraBit {
		curField.Set(mbx, mby, mvfield.Zero)
		return d.decodeIntraMB(recon, qp, mbx, mby)
	}
	fourV, err := d.sr.Flag(sctxInter4V)
	if err != nil {
		return err
	}
	if fourV {
		return fmt.Errorf("codec: reserved four-vector flag set (advanced prediction is not supported)")
	}

	// Inter: MVD against the median predictor, CBP, coefficients. The
	// prediction goes straight into recon (predictInterMB, shared with the
	// encoder), which finishes every uncoded block; each coded block reads
	// its coefficients and is finished in place.
	predMV := curField.MedianPredictor(mbx, mby)
	dx, err := d.sr.SE(sctxMVX)
	if err != nil {
		return err
	}
	dy, err := d.sr.SE(sctxMVY)
	if err != nil {
		return err
	}
	mv := predMV.Add(mvfield.MV{X: int(dx), Y: int(dy)})
	var coded [6]bool
	for i := range coded {
		coded[i], err = d.sr.Flag(sctxCBP)
		if err != nil {
			return err
		}
	}
	curField.Set(mbx, mby, mv)
	predictInterMB(recon, d.recon, mbx, mby, mv)
	var levels dct.Block // readCoeffs writes all sixty-four
	for i, c := range coded {
		if !c {
			continue
		}
		if err := readCoeffs(d.sr, &levels); err != nil {
			return fmt.Errorf("codec: inter block %d: %w", i, err)
		}
		p, x, y := mbBlock(recon, mbx, mby, i)
		reconCodedBlock(p, x, y, &levels, qp)
	}
	return nil
}
