package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/frame"
	"repro/internal/plot"
	"repro/internal/ratedist"
	"repro/internal/video"
)

// FormatTable1 renders a Table1Result in the paper's layout: sequences as
// column groups (one column per decimation), Qp as rows.
func FormatTable1(r *Table1Result) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "Table 1: average candidate positions searched per macroblock (ACBM)\n")
	fmt.Fprintf(&b, "FSBM reference: %d positions; α=%d β=%d γ=%d/%d, p=%d\n\n",
		FSBMPoints, cfg.Params.Alpha, cfg.Params.Beta, cfg.Params.GammaNum, cfg.Params.GammaDen, DefaultRange)

	fmt.Fprintf(&b, "%-4s", "Qp")
	for _, p := range cfg.Profiles {
		for _, dec := range cfg.Decimations {
			fmt.Fprintf(&b, " %14s", fmt.Sprintf("%.8s@%dfps", p.String(), 30/dec))
		}
	}
	b.WriteByte('\n')
	qps := append([]int(nil), cfg.Qps...)
	sort.Sort(sort.Reverse(sort.IntSlice(qps)))
	for _, qp := range qps {
		fmt.Fprintf(&b, "%-4d", qp)
		for _, p := range cfg.Profiles {
			for _, dec := range cfg.Decimations {
				if cell, ok := r.Cell(p, dec, qp); ok {
					fmt.Fprintf(&b, " %14.0f", cell.AvgPoints)
				} else {
					fmt.Fprintf(&b, " %14s", "-")
				}
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nmax complexity reduction vs FSBM: %.1f%%\n", 100*r.MaxReduction())
	return b.String()
}

// FormatRDCurves renders one Fig. 5/6 panel as an ASCII chart plus the raw
// (rate, PSNR) series.
func FormatRDCurves(title string, curves []ratedist.Curve) string {
	var b strings.Builder
	series := make([]plot.Series, len(curves))
	for i, c := range curves {
		series[i].Name = c.Name
		for _, p := range c.Points {
			series[i].X = append(series[i].X, p.RateKbps)
			series[i].Y = append(series[i].Y, p.PSNR)
		}
	}
	b.WriteString(plot.Chart(title, "rate (kbit/s)", "PSNR-Y (dB)", 60, 16, series))
	b.WriteByte('\n')
	for _, c := range curves {
		fmt.Fprintf(&b, "%-6s", c.Name)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  (qp%d: %.1f kbit/s, %.2f dB)", p.Qp, p.RateKbps, p.PSNR)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatMVStudy renders the Fig. 4 study: the per-error-class statistics
// that the paper's six scatter plots summarise, plus the class histogram.
func FormatMVStudy(r *MVStudyResult) string {
	var b strings.Builder
	b.WriteString("Figure 4 study: FSBM motion vector errors vs block statistics\n\n")
	fmt.Fprintf(&b, "%-8s %8s %14s %16s %12s\n", "error", "blocks", "mean IntraSAD", "mean SADdev", "mean SADmin")
	labels := make([]string, ErrClasses)
	counts := make([]int, ErrClasses)
	for c := 0; c < ErrClasses; c++ {
		name := fmt.Sprintf("=%d", c)
		if c == ErrClasses-1 {
			name = ">=5"
		}
		labels[c], counts[c] = name, r.Classes[c].Count
		fmt.Fprintf(&b, "%-8s %8d %14.0f %16.0f %12.0f\n",
			name, r.Classes[c].Count, r.Classes[c].MeanIntraSAD,
			r.Classes[c].MeanDeviation, r.Classes[c].MeanSADMin)
	}
	b.WriteByte('\n')
	b.WriteString(plot.Histogram("blocks per error class", labels, counts, 40))
	high, low := r.HighTextureTrueRate()
	fmt.Fprintf(&b, "\nerr=0 rate: %.1f%% overall; %.1f%% in high-texture half vs %.1f%% in low-texture half\n",
		100*r.TrueVectorRate(), 100*high, 100*low)
	fmt.Fprintf(&b, "§3.1 conclusions: texture margin %+.3f, SAD_deviation margin %+.0f (each holds when positive)\n",
		r.TextureMargin(), r.DeviationMargin())
	return b.String()
}

// ProfileTitle builds a figure panel title like the paper's captions.
func ProfileTitle(p video.Profile, size frame.Size, dec int) string {
	return fmt.Sprintf("%s sequence, %v@%dfps", p, size, 30/dec)
}
