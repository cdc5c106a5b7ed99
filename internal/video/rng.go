// Package video synthesises deterministic test sequences that substitute
// for the standard clips the paper evaluates on (Carphone, Foreman, Miss
// America, Table). A small procedural scene engine — value-noise textures,
// elliptical/rectangular sprites and an animated camera — reproduces the
// properties ACBM is sensitive to: per-block texture (Intra_SAD) and
// motion-field coherence. Four profiles mimic the four sequences' texture
// level and motion character; a global-motion generator reproduces the
// move-then-search setup of the paper's Fig. 4 study.
package video

// hashX and hashY together map lattice coordinates to a uniform value in
// [0, 1), mixing in the seed: hashY(hashX(seed, x), y). The hash is
// stateless: the same (seed, x, y) always yields the same value, which
// lets noise be sampled at arbitrary subpixel positions and lets a caller
// reuse hashX's result for every y of one column (a lattice cell's two
// corners, a raster column's sensor noise).
func hashX(seed uint64, x int64) uint64 {
	h := seed ^ uint64(x)*0x9E3779B97F4A7C15
	return (h ^ h>>30) * 0xBF58476D1CE4E5B9
}

// hashY finishes the hash from hashX's result. The compiler turns the
// division into a multiply by 2⁻⁵³; the explicit conversion keeps that
// multiply out of any fused multiply-add with the caller's arithmetic.
func hashY(h uint64, y int64) float64 {
	h ^= uint64(y) * 0xC2B2AE3D27D4EB4F
	h = (h ^ h>>27) * 0x94D049BB133111EB
	h ^= h >> 31
	return float64(float64(h>>11) / float64(1<<53))
}
