package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Example runs ACBM on a single macroblock whose content moved by a known
// displacement, showing the decision trace the algorithm exposes.
func Example() {
	// A textured reference and its copy translated 2 pels right, 1 down.
	ref := frame.NewPlane(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			ref.Set(x, y, uint8((x*x+y*3)%251))
		}
	}
	cur := ref.Shift(2, 1)

	// The previous frame's motion field supplies the temporal predictor
	// PBM starts from (Fig. 2 of the paper).
	prev := mvfield.NewField(6, 6)
	for by := 0; by < 6; by++ {
		for bx := 0; bx < 6; bx++ {
			prev.Set(bx, by, mvfield.FromFullPel(-2, -1))
		}
	}
	acbm := core.New(core.DefaultParams) // α=1000 β=8 γ=1/4
	in := &search.Input{
		Cur: cur, Ref: ref,
		BX: 40, BY: 40, W: 16, H: 16, Range: 15, Qp: 16,
		CurField: mvfield.NewField(6, 6), PrevField: prev, MBX: 2, MBY: 2,
	}
	res, tr := acbm.SearchTrace(in)
	fmt.Printf("mv=%v sad=%d decision=%v fsbm-ran=%v\n",
		res.MV, res.SAD, tr.Decision, tr.FSBMPoints > 0)
	// Output:
	// mv=(-2,-1) sad=0 decision=good-match fsbm-ran=false
}
