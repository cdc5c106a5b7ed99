package search_test

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// Example compares the full search and a fast baseline on a block whose
// content moved by a known displacement.
func Example() {
	tex := video.Noise{Seed: 9, Scale: 6, Octaves: 3}
	ref := frame.NewPlane(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			ref.Set(x, y, frame.ClampU8(int(40+180*tex.At(float64(x), float64(y)))))
		}
	}
	cur := ref.Shift(4, -3) // content moves 4 right, 3 up

	for _, s := range []search.Searcher{&search.FSBM{}, &search.Diamond{}} {
		in := &search.Input{
			Cur: cur, Ref: ref,
			BX: 40, BY: 40, W: 16, H: 16, Range: 15, Qp: 16,
		}
		res := s.Search(in)
		fmt.Printf("%-5s mv=%v sad=%d points=%d\n", s.Name(), res.MV, res.SAD, res.Points)
	}
	// Output:
	// FSBM  mv=(-4,+3) sad=0 points=969
	// DS    mv=(-4,+3) sad=0 points=33
}
