package metrics

import (
	"fmt"
	"syscall"
	"testing"

	"repro/internal/dct"
	"repro/internal/frame"
)

// guardedPlanes maps four pages, the second and fourth PROT_NONE, and
// returns a 16×16 cur plane ending at the first guard and planeBefore, which
// lays a w×h plane with stride w out so that its last byte is the one
// before the second guard. A vector load past either plane faults instead
// of reading a neighbour's bytes silently.
func guardedPlanes(t *testing.T) (cur *frame.Plane, planeBefore func(w, h int) *frame.Plane) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, guard := range []int{page, 3 * page} {
		if err := syscall.Mprotect(mem[guard:guard+page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	for i := range mem[:page] {
		mem[i] = uint8(i * 7)
	}
	for i := 2 * page; i < 3*page; i++ {
		mem[i] = uint8(i*13 + i>>5)
	}
	before := func(end, w, h int) *frame.Plane {
		return &frame.Plane{W: w, H: h, Stride: w, Pix: mem[end-w*h : end : end]}
	}
	return before(page, 16, 16), func(w, h int) *frame.Plane { return before(3*page, w, h) }
}

// TestSADBestReadsOnlyItsWindow holds every tier to the sadBest contract
// that nothing outside the cur block and the in-clip candidate blocks is
// read. Each plane ends at a PROT_NONE page: the cur block's last byte, and
// the last byte of the bottom-right candidate block, are the bytes just
// before one. The spans cover the elimination grid's limits (4 and 32 wide,
// 32 high), the full search's 31×31, and windows too narrow or too wide for
// the grid.
func TestSADBestReadsOnlyItsWindow(t *testing.T) {
	cur, planeBefore := guardedPlanes(t)
	for _, span := range [][2]int{{31, 31}, {32, 32}, {4, 7}, {16, 16}, {17, 5}, {32, 1}, {3, 20}, {41, 41}} {
		spanX, spanY := span[0], span[1]
		// The window is the whole plane: its bottom-right candidate block
		// ends at the plane's last byte.
		ref := planeBefore(spanX+15, spanY+15)
		rx, ry := spanX/2, spanY/2
		clip := Rect{MinX: -rx, MinY: -ry, MaxX: spanX - 1 - rx, MaxY: spanY - 1 - ry}
		var cands []Offset
		for dy := clip.MinY; dy <= clip.MaxY; dy++ {
			for dx := clip.MinX; dx <= clip.MaxX; dx++ {
				cands = append(cands, Offset{DX: int16(dx), DY: int16(dy)})
			}
		}
		oracle := sadOracle(cur, 0, 0, ref, rx, ry, 16, 16)
		t.Run(fmt.Sprintf("%dx%d", spanX, spanY), func(t *testing.T) {
			withEachISA(t, func(t *testing.T, isa string) {
				for _, best := range []int{1 << 30, 0} {
					checkSADBest(t, "guarded", oracle, cur, 0, 0, ref, rx, ry, 16, 16, cands, clip, best)
				}
			})
		})
	}
}

// TestInverseAddReadsOnlyItsWindow holds every tier's reconstruction to its
// 8×8 prediction: the prediction block is the plane before a guard page,
// its last byte the one before it, read from a separate plane and in place
// (the inter route, which also writes that block). The destination window
// is checked against the scalar tier's.
func TestInverseAddReadsOnlyItsWindow(t *testing.T) {
	_, planeBefore := guardedPlanes(t)
	pred := planeBefore(8, 8)
	orig := append([]uint8(nil), pred.Pix...)
	levels := &dct.Block{0: 5, 1: -3, 9: 2, 63: 1}
	for _, intra := range []bool{false, true} {
		want := frame.NewPlane(8, 8)
		inverseAddScalar(want, 0, 0, pred, 0, 0, levels, 12, intra)
		withEachISA(t, func(t *testing.T, isa string) {
			dst := frame.NewPlane(8, 8)
			InverseAdd(dst, 0, 0, pred, 0, 0, levels, 12, intra)
			if string(dst.Pix) != string(want.Pix) {
				t.Fatalf("guarded prediction, intra %v: got %v want %v", intra, dst.Pix, want.Pix)
			}
			InverseAdd(pred, 0, 0, pred, 0, 0, levels, 12, intra)
			got := append([]uint8(nil), pred.Pix...)
			copy(pred.Pix, orig)
			if string(got) != string(want.Pix) {
				t.Fatalf("guarded in place, intra %v: got %v want %v", intra, got, want.Pix)
			}
		})
	}
}

// TestRingReadsOnlyItsWindow holds every tier's ring to its contract of
// reading the (w+2)×(h+2) window around the anchor and nothing beside it —
// what lets an edge macroblock's ring run on a reference whose apron is
// one sample. The window is the whole plane around the anchor (1, 1), so
// the ring's bottom-right corner is the byte before the guard page.
func TestRingReadsOnlyItsWindow(t *testing.T) {
	cur, planeBefore := guardedPlanes(t)
	for _, sz := range [][2]int{{16, 16}, {16, 8}, {8, 16}, {8, 8}} {
		w, h := sz[0], sz[1]
		ref := planeBefore(w+2, h+2)
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			withEachISA(t, func(t *testing.T, isa string) {
				var ring [9]int
				SADHalfPelRing(cur, 0, 0, ref, 1, 1, w, h, &ring)
				if want := sadHalfPelRingScalar(cur, 0, 0, ref, 1, 1, w, h); ring != want {
					t.Fatalf("guarded ring: got %v want %v", ring, want)
				}
			})
		})
	}
}
