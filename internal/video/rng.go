// Package video synthesises deterministic test sequences that substitute
// for the standard clips the paper evaluates on (Carphone, Foreman, Miss
// America, Table). A small procedural scene engine — value-noise textures,
// elliptical/rectangular sprites and an animated camera — reproduces the
// properties ACBM is sensitive to: per-block texture (Intra_SAD) and
// motion-field coherence. Four profiles mimic the four sequences' texture
// level and motion character; a global-motion generator reproduces the
// move-then-search setup of the paper's Fig. 4 study.
package video

// hash2 maps lattice coordinates to a uniform value in [0, 1), mixing in
// the seed. It is stateless: the same (seed, x, y) always yields the same
// value, which lets noise be sampled at arbitrary subpixel positions.
func hash2(seed uint64, x, y int64) float64 {
	h := seed
	h ^= uint64(x) * 0x9E3779B97F4A7C15
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h ^= uint64(y) * 0xC2B2AE3D27D4EB4F
	h = (h ^ h>>27) * 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
