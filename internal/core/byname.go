package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/search"
)

// ErrBudgetNeedsACBM is NewSearcher's refusal of a budget for a searcher
// other than ACBM: the budget servos ACBM's thresholds.
var ErrBudgetNeedsACBM = errors.New("budget requires the ACBM searcher")

// NewSearcher builds the motion estimator named name (SearcherByName's
// vocabulary) for one encode. ACBM takes p, and a positive budget wraps it
// in the positions/MB servo (NewBudgeted); any other searcher with a
// positive budget is refused with ErrBudgetNeedsACBM. A budget that is NaN
// or infinite is refused for every searcher.
func NewSearcher(name string, p Params, budget float64) (search.Searcher, error) {
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("core: budget must be finite, got %g", budget)
	}
	switch strings.ToLower(name) {
	case "", "acbm":
		if budget <= 0 {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return New(p), nil
		}
		b, err := NewBudgeted(budget, p)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	if budget > 0 {
		return nil, fmt.Errorf("%w (got me=%q)", ErrBudgetNeedsACBM, name)
	}
	return SearcherByName(name)
}

// SearcherByName builds a motion estimator from its CLI name — the
// shared vocabulary of cmd/vcodec's -me flag, vcodecd's ?me= query
// parameter and vload's benchmark config. ACBM uses DefaultParams;
// NewSearcher takes custom α/β and a budget.
func SearcherByName(name string) (search.Searcher, error) {
	switch strings.ToLower(name) {
	case "", "acbm":
		return New(DefaultParams), nil
	case "fsbm":
		return &search.FSBM{}, nil
	case "rcfsbm":
		return &search.RCFSBM{}, nil
	case "pbm":
		return &search.PBM{}, nil
	case "tss":
		return &search.TSS{}, nil
	case "ntss":
		return &search.NTSS{}, nil
	case "4ss", "fss":
		return &search.FSS{}, nil
	case "ds", "diamond":
		return &search.Diamond{}, nil
	case "cds":
		return &search.CrossDiamond{}, nil
	case "hexbs", "hex":
		return &search.HEXBS{}, nil
	}
	return nil, fmt.Errorf("unknown motion estimator %q", name)
}
