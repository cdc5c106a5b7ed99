package experiment

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/plot"
	"repro/internal/search"
	"repro/internal/video"
)

// FormatMVStudyPanels renders the six density panels of Fig. 4: one
// (Intra_SAD, SAD_deviation) scatter per motion-vector-error class, on
// shared axes as in the paper.
func FormatMVStudyPanels(r *MVStudyResult, width, height int) string {
	var b strings.Builder
	var xmax, ymax float64
	for _, s := range r.Samples {
		if v := float64(s.IntraSAD); v > xmax {
			xmax = v
		}
		if v := float64(s.Deviation); v > ymax {
			ymax = v
		}
	}
	for c := 0; c < ErrClasses; c++ {
		var xs, ys []float64
		for _, s := range r.Samples {
			if s.Err != c {
				continue
			}
			xs = append(xs, float64(s.IntraSAD))
			ys = append(ys, float64(s.Deviation))
		}
		name := fmt.Sprintf("error=%d", c)
		if c == ErrClasses-1 {
			name = "error>=5"
		}
		title := fmt.Sprintf("%s (%d blocks) — x: Intra_SAD, y: SAD_deviation", name, len(xs))
		b.WriteString(plot.Density(title, xs, ys, width, height, xmax, ymax))
		b.WriteByte('\n')
	}
	return b.String()
}

// DecisionMap records ACBM's per-macroblock decisions over one frame pair,
// for visual inspection of where the algorithm escalates to full search.
type DecisionMap struct {
	Cols, Rows int
	Decisions  []core.Decision // raster order
	Stats      core.Stats
}

// RunDecisionMap estimates motion for every macroblock of frames[idx]
// against frames[idx-1] with a fresh ACBM instance.
func RunDecisionMap(prof video.Profile, size frame.Size, idx int, params core.Params, seed uint64) (*DecisionMap, error) {
	if idx < 1 {
		return nil, fmt.Errorf("experiment: decision map needs idx >= 1, got %d", idx)
	}
	params, seed = cmp.Or(params, core.DefaultParams), cmp.Or(seed, DefaultSeed)
	sc := prof.Scene(seed)
	ref := sc.Render(size, idx-1)
	cur := sc.Render(size, idx)
	cols, rows := size.MacroblockCols(), size.MacroblockRows()
	dm := &DecisionMap{Cols: cols, Rows: rows, Decisions: make([]core.Decision, cols*rows)}
	acbm := core.New(params)
	searchField(cur.Y, ref.Y, 16, func(in *search.Input) mvfield.MV {
		res, tr := acbm.SearchTrace(in)
		dm.Decisions[in.MBY*cols+in.MBX] = tr.Decision
		return res.MV
	})
	dm.Stats = acbm.Stats()
	return dm, nil
}

// searchField estimates the motion of cur's 16×16 blocks against ref in
// raster order at ±DefaultRange and qp, each block by find, with the
// field found so far as its spatial context.
func searchField(cur, ref *frame.Plane, qp int, find func(in *search.Input) mvfield.MV) *mvfield.Field {
	fld := mvfield.NewField((cur.W+15)/16, (cur.H+15)/16)
	for mby := 0; mby < fld.Rows; mby++ {
		for mbx := 0; mbx < fld.Cols; mbx++ {
			fld.Set(mbx, mby, find(&search.Input{Cur: cur, Ref: ref, BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16,
				Range: DefaultRange, Qp: qp, CurField: fld, MBX: mbx, MBY: mby}))
		}
	}
	return fld
}

// String renders the map: '.' easy, 'g' good-match, 'C' critical.
func (m *DecisionMap) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			switch m.Decisions[r*m.Cols+c] {
			case core.AcceptedEasy:
				b.WriteByte('.')
			case core.AcceptedGoodMatch:
				b.WriteByte('g')
			default:
				b.WriteByte('C')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "easy %d, good-match %d, critical %d (%.0f positions/MB)\n",
		m.Stats.Easy, m.Stats.GoodMatch, m.Stats.CriticalCnt, m.Stats.AvgPoints())
	return b.String()
}
