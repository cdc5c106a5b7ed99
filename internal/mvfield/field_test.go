package mvfield

import "testing"

func TestFieldSetAtKnown(t *testing.T) {
	f := NewField(4, 3)
	if f.Known(0, 0) {
		t.Fatal("fresh field has known vectors")
	}
	f.Set(2, 1, MV{4, -2})
	if !f.Known(2, 1) || f.At(2, 1) != (MV{4, -2}) {
		t.Fatal("Set/At wrong")
	}
	if f.At(-1, 0) != Zero || f.At(0, 99) != Zero {
		t.Fatal("out-of-range At must return Zero")
	}
	if f.Known(-1, 0) || f.Known(4, 0) {
		t.Fatal("out-of-range blocks must be unknown")
	}
}

func TestFieldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewField(0, 3) did not panic")
		}
	}()
	NewField(0, 3)
}

func TestFieldResetAndClone(t *testing.T) {
	f := NewField(2, 2)
	f.Set(1, 1, MV{2, 2})
	g := f.Clone()
	f.Reset()
	if f.Known(1, 1) || f.At(1, 1) != Zero {
		t.Fatal("Reset did not clear")
	}
	if !g.Known(1, 1) || g.At(1, 1) != (MV{2, 2}) {
		t.Fatal("Clone shares state with original")
	}
}

func TestMedianPredictorFirstRow(t *testing.T) {
	f := NewField(4, 2)
	f.Set(0, 0, MV{6, 0})
	// First row: predictor for (1,0) is the left neighbour only.
	if got := f.MedianPredictor(1, 0); got != (MV{6, 0}) {
		t.Fatalf("first-row predictor = %v", got)
	}
	// Block (0,0) has no left neighbour: zero.
	if got := f.MedianPredictor(0, 0); got != Zero {
		t.Fatalf("origin predictor = %v", got)
	}
}

func TestMedianPredictorInterior(t *testing.T) {
	f := NewField(4, 3)
	f.Set(0, 1, MV{2, 2})  // left of (1,1)
	f.Set(1, 0, MV{4, 0})  // above
	f.Set(2, 0, MV{8, -2}) // above-right
	want := Median(MV{2, 2}, MV{4, 0}, MV{8, -2})
	if got := f.MedianPredictor(1, 1); got != want {
		t.Fatalf("interior predictor = %v, want %v", got, want)
	}
}

func TestCandidatesCausality(t *testing.T) {
	f := NewField(3, 3)
	prev := NewField(3, 3)
	// Mark every previous-frame vector known with distinct values.
	for by := 0; by < 3; by++ {
		for bx := 0; bx < 3; bx++ {
			prev.Set(bx, by, FromFullPel(bx, by))
		}
	}
	// Current frame: only blocks before (1,1) in raster order are known.
	f.Set(0, 0, FromFullPel(5, 5))
	f.Set(1, 0, FromFullPel(6, 6))
	f.Set(2, 0, FromFullPel(7, 7))
	f.Set(0, 1, FromFullPel(8, 8))

	got := f.Candidates(prev, 1, 1)
	seen := make(map[MV]bool)
	for _, m := range got {
		if seen[m] {
			t.Fatalf("duplicate candidate %v", m)
		}
		seen[m] = true
	}
	if !seen[Zero] {
		t.Fatal("zero vector missing from candidates")
	}
	// All four causal spatial neighbours must be present.
	for _, m := range []MV{FromFullPel(5, 5), FromFullPel(6, 6), FromFullPel(7, 7), FromFullPel(8, 8)} {
		if !seen[m] {
			t.Fatalf("causal spatial candidate %v missing", m)
		}
	}
	// All nine temporal neighbours must be present.
	for by := 0; by < 3; by++ {
		for bx := 0; bx < 3; bx++ {
			if !seen[FromFullPel(bx, by)] {
				t.Fatalf("temporal candidate (%d,%d) missing", bx, by)
			}
		}
	}
}

func TestCandidatesNoPrevAndFreshField(t *testing.T) {
	f := NewField(3, 3)
	got := f.Candidates(nil, 0, 0)
	if len(got) != 1 || got[0] != Zero {
		t.Fatalf("fresh field candidates = %v, want [Zero]", got)
	}
}

func TestSmoothness(t *testing.T) {
	f := NewField(2, 2)
	// All-zero field is perfectly smooth.
	if f.Smoothness() != 0 {
		t.Fatal("zero field smoothness != 0")
	}
	f.Set(0, 0, FromFullPel(1, 0)) // (2,0) half-pel
	// Pairs: (0,0)-(1,0): 2; (0,0)-(0,1): 2; (1,0)-(1,1): 0; (0,1)-(1,1): 0.
	if got := f.Smoothness(); got != 1.0 {
		t.Fatalf("smoothness = %v, want 1.0", got)
	}
}

// TestAppendPredictorsOrder pins the gather order — left, up-left, up,
// up-right, then the temporal 3×3 in raster order — because PBM breaks
// exact (SAD, L1) ties toward the first-seen predictor, and checks that
// unknown and out-of-field blocks are skipped without deduplication.
func TestAppendPredictorsOrder(t *testing.T) {
	f, prev := NewField(3, 3), NewField(3, 3)
	for by := 0; by < 3; by++ {
		for bx := 0; bx < 3; bx++ {
			prev.Set(bx, by, FromFullPel(10+bx, 10+by))
		}
	}
	f.Set(0, 0, FromFullPel(1, 0))
	f.Set(1, 0, FromFullPel(2, 0))
	f.Set(2, 0, FromFullPel(3, 0))
	f.Set(0, 1, FromFullPel(4, 0))
	want := []MV{FromFullPel(4, 0), FromFullPel(1, 0), FromFullPel(2, 0), FromFullPel(3, 0)}
	for by := 0; by < 3; by++ {
		for bx := 0; bx < 3; bx++ {
			want = append(want, FromFullPel(10+bx, 10+by))
		}
	}
	var buf [MaxPredictors]MV
	got := f.AppendPredictors(buf[:0], prev, 1, 1)
	if len(got) != len(want) {
		t.Fatalf("got %d predictors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predictor %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Corner block, duplicate vectors, an unknown temporal entry.
	g, gp := NewField(2, 2), NewField(2, 2)
	gp.Set(0, 0, Zero)
	gp.Set(1, 0, Zero)
	gp.Set(1, 1, FromFullPel(1, 1))
	got = g.AppendPredictors(buf[:0], gp, 0, 0)
	if len(got) != 3 || got[0] != Zero || got[1] != Zero || got[2] != FromFullPel(1, 1) {
		t.Fatalf("corner predictors = %v", got)
	}
	if got = g.AppendPredictors(buf[:0], nil, 0, 0); len(got) != 0 {
		t.Fatalf("fresh field, no prev: %v", got)
	}
}
