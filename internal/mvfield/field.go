package mvfield

import "fmt"

// Field is a motion vector per macroblock, in raster order. Fields for the
// previous and current frame together form the spatio-temporal
// neighbourhood PBM draws its predictors from (paper Fig. 2).
type Field struct {
	Cols, Rows int
	mv         []MV
	valid      []bool // set once a block's vector has been computed
}

// NewField returns an empty cols×rows field.
func NewField(cols, rows int) *Field {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("mvfield: invalid field size %dx%d", cols, rows))
	}
	return &Field{
		Cols:  cols,
		Rows:  rows,
		mv:    make([]MV, cols*rows),
		valid: make([]bool, cols*rows),
	}
}

// In reports whether (bx, by) is a valid block coordinate.
func (f *Field) In(bx, by int) bool {
	return bx >= 0 && by >= 0 && bx < f.Cols && by < f.Rows
}

// Set records the motion vector for block (bx, by) and marks it computed.
func (f *Field) Set(bx, by int, m MV) {
	f.mv[by*f.Cols+bx] = m
	f.valid[by*f.Cols+bx] = true
}

// At returns the motion vector for block (bx, by). Blocks that have not
// been Set yet report the zero vector, mirroring encoder behaviour where
// unavailable predictors default to (0,0).
func (f *Field) At(bx, by int) MV {
	if !f.In(bx, by) {
		return Zero
	}
	return f.mv[by*f.Cols+bx]
}

// Known reports whether block (bx, by) has a computed vector. Out-of-range
// blocks are unknown.
func (f *Field) Known(bx, by int) bool {
	if !f.In(bx, by) {
		return false
	}
	return f.valid[by*f.Cols+bx]
}

// Reset clears all vectors and computed marks for reuse on a new frame.
func (f *Field) Reset() {
	for i := range f.mv {
		f.mv[i] = Zero
		f.valid[i] = false
	}
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := NewField(f.Cols, f.Rows)
	copy(g.mv, f.mv)
	copy(g.valid, f.valid)
	return g
}

// MedianPredictor returns the H.263 median predictor for block (bx, by):
// the component-wise median of the left, above and above-right neighbours
// in the current field. Unavailable neighbours contribute the zero vector,
// which matches the standard's border rules closely enough for rate
// accounting purposes.
func (f *Field) MedianPredictor(bx, by int) MV {
	left := f.At(bx-1, by)
	up := f.At(bx, by-1)
	upRight := f.At(bx+1, by-1)
	if by == 0 {
		// First row: predictor is just the left neighbour.
		return left
	}
	return Median(left, up, upRight)
}

// MaxPredictors is the size of the Fig. 2 neighbourhood: four causal
// spatial neighbours and the 3×3 temporal group.
const MaxPredictors = 13

// AppendPredictors appends the spatio-temporal neighbourhood of block
// (bx, by), following Fig. 2 of the paper, to dst: the causal spatial
// neighbours from the current frame (mv1..mv4 — left, up-left, up,
// up-right; mv5..mv8 are not yet computed), then the collocated vector and
// its eight neighbours from the previous frame in raster order — at most
// MaxPredictors vectors. prev may be nil (first P-frame). Unknown blocks
// are skipped; the vectors are raw — neither deduplicated nor joined by
// the zero vector, which is Candidates' (and PBM's) business. This is the
// one statement of the neighbourhood; it runs once per macroblock, hence
// straight-line, with no closure and no allocation when dst has room.
func (f *Field) AppendPredictors(dst []MV, prev *Field, bx, by int) []MV {
	if f.Known(bx-1, by) {
		dst = append(dst, f.mv[by*f.Cols+bx-1])
	}
	for nx := bx - 1; nx <= bx+1; nx++ {
		if f.Known(nx, by-1) {
			dst = append(dst, f.mv[(by-1)*f.Cols+nx])
		}
	}
	if prev != nil {
		for ny := by - 1; ny <= by+1; ny++ {
			for nx := bx - 1; nx <= bx+1; nx++ {
				if prev.Known(nx, ny) {
					dst = append(dst, prev.mv[ny*prev.Cols+nx])
				}
			}
		}
	}
	return dst
}

// Candidates returns the predictor set for block (bx, by): the zero vector
// followed by AppendPredictors' neighbourhood, deduplicated in first-seen
// order. It is always non-empty and at most MaxPredictors+1 long.
func (f *Field) Candidates(prev *Field, bx, by int) []MV {
	all := f.AppendPredictors(append(make([]MV, 0, MaxPredictors+1), Zero), prev, bx, by)
	out := all[:0] // compacted in place: the write index never passes the read index
next:
	for _, m := range all {
		for _, v := range out {
			if v == m {
				continue next
			}
		}
		out = append(out, m)
	}
	return out
}

// Smoothness returns the mean L1 difference (half-pel units) between
// horizontally and vertically adjacent vectors — a coherence measure for
// comparing the motion fields produced by FSBM and PBM/ACBM.
func (f *Field) Smoothness() float64 {
	var sum, n int
	for by := 0; by < f.Rows; by++ {
		for bx := 0; bx < f.Cols; bx++ {
			if bx+1 < f.Cols {
				sum += f.At(bx, by).Sub(f.At(bx+1, by)).L1()
				n++
			}
			if by+1 < f.Rows {
				sum += f.At(bx, by).Sub(f.At(bx, by+1)).L1()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
