//go:build !amd64

package tensor

// useAVX2 is always false here: off amd64 there is no AVX2 tile to select.
var useAVX2 = false

// tile2x4F32 runs the portable tile where there is no SIMD form.
func tile2x4F32(c *[8]float32, a0, a1, b []float32, n, steps int) {
	tile2x4F32Go(c, a0, a1, b, n, steps)
}

// tile4x1F32 runs the portable tile where there is no SIMD form.
func tile4x1F32(c *[4]float32, a *[4][]float32, b []float32, n, steps int) {
	tile4x1F32Go(c, a, b, n, steps)
}

// tile8x4F64 runs the portable tile where there is no SIMD form.
func tile8x4F64(c *[8][4]float64, a *[8][]float64, b []float64, n, steps int) {
	tile8x4F64Go(c, a, b, n, steps)
}
