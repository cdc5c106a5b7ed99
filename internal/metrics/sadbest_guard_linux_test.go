package metrics

import (
	"fmt"
	"syscall"
	"testing"

	"repro/internal/frame"
)

// TestSADBestReadsOnlyItsWindow holds every tier to the sadBest contract
// that nothing outside the cur block and the in-clip candidate blocks is
// read. Each plane ends at a PROT_NONE page: the cur block's last byte, and
// the last byte of the bottom-right candidate block, are the bytes just
// before one. A vector load past either faults instead of reading a
// neighbour's bytes silently. The spans cover the elimination grid's limits
// (4 and 32 wide, 32 high), the full search's 31×31, and windows too narrow
// or too wide for the grid.
func TestSADBestReadsOnlyItsWindow(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
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
	// planeBefore lays a w×h plane with stride w out so its last byte is
	// the one before the guard page at end.
	planeBefore := func(end, w, h int) *frame.Plane {
		return &frame.Plane{W: w, H: h, Stride: w, Pix: mem[end-w*h : end : end]}
	}
	cur := planeBefore(page, 16, 16)

	for _, span := range [][2]int{{31, 31}, {32, 32}, {4, 7}, {16, 16}, {17, 5}, {32, 1}, {3, 20}, {41, 41}} {
		spanX, spanY := span[0], span[1]
		// The window is the whole plane: its bottom-right candidate block
		// ends at the plane's last byte.
		ref := planeBefore(3*page, spanX+15, spanY+15)
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
