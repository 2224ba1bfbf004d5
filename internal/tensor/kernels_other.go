//go:build !amd64

package tensor

// tile2x4F32 runs the portable tile where there is no SIMD form.
func tile2x4F32(c *[8]float32, a0, a1, b []float32, n, steps int) {
	tile2x4F32Go(c, a0, a1, b, n, steps)
}

// tile2x4F64 runs the portable tile where there is no SIMD form.
func tile2x4F64(c *[8]float64, a0, a1, b []float64, n, steps int) {
	tile2x4F64Go(c, a0, a1, b, n, steps)
}
