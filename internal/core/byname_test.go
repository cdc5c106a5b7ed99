package core

import (
	"errors"
	"math"
	"testing"
)

// TestNewSearcherBudgetRule pins the one constructor the CLI and vcodecd
// build searchers with: ACBM takes its Params, a budget wraps it in the
// servo, and a budget on any other searcher is refused.
func TestNewSearcherBudgetRule(t *testing.T) {
	p := DefaultParams
	p.Alpha = 7
	if s, err := NewSearcher("ACBM", p, 0); err != nil || s.(*ACBM).Params != p {
		t.Errorf("acbm: %v, %v", s, err)
	}
	for _, name := range []string{"", "acbm"} {
		if s, err := NewSearcher(name, p, 150); err != nil || s.(*Budgeted).Base != p {
			t.Errorf("%q with budget: %v, %v", name, s, err)
		}
	}
	if s, err := NewSearcher("fsbm", p, 0); err != nil || s.Name() != "FSBM" {
		t.Errorf("fsbm: %v, %v", s, err)
	}
	if _, err := NewSearcher("fsbm", p, 150); !errors.Is(err, ErrBudgetNeedsACBM) {
		t.Errorf("fsbm with budget: %v, want ErrBudgetNeedsACBM", err)
	}
	bad := p
	bad.GammaDen = 0
	for _, budget := range []float64{0, 150} {
		if _, err := NewSearcher("acbm", bad, budget); err == nil {
			t.Errorf("invalid Params accepted with budget %g", budget)
		}
	}
	if _, err := NewSearcher("nope", p, 0); err == nil {
		t.Error("unknown searcher accepted")
	}
	// NaN fails every comparison, so a "budget <= 0" test lets it through
	// to a servo whose scale turns NaN after one frame.
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, name := range []string{"acbm", "fsbm"} {
			if _, err := NewSearcher(name, p, budget); err == nil {
				t.Errorf("%s with budget %g accepted", name, budget)
			}
		}
		if _, err := NewBudgeted(budget, p); err == nil {
			t.Errorf("NewBudgeted(%g) accepted", budget)
		}
	}
}
