//go:build !amd64

package tensor

// useAVX2 is always false here: off amd64 there is no AVX2 kernel to
// select.
var useAVX2 = false

// tile8x4F64 runs the portable tile where there is no SIMD form.
func tile8x4F64(c *[8][4]float64, a *[8][]float64, b []float64, n, steps int) {
	tile8x4F64Go(c, a, b, n, steps)
}

// convDirectF32 runs the portable direct convolution where there is no
// SIMD form.
func convDirectF32(y, x []float32, d *DirectConv[float32], taps []int32, hw int) {
	convDirectF32Go(y, x, d.w, d.ldw, d.outC, hw, taps, 0, (d.outC+7)/8)
}

// convDirectF64 runs the portable f64 direct convolution where there is no
// SIMD form.
func convDirectF64(y, x []float64, d *DirectConv[float64], taps []int32, hw int) {
	convDirectF64Go(y, x, d.w, d.ldw, d.outC, hw, taps, 0, (d.outC+7)/8)
}

// vectorOutC is 0 here: ConvDirectInto applies every channel's epilogue
// in Go.
func vectorOutC(outC int) int { return 0 }

// addReLU has no vector form here: AddReLUInto runs AddInto and ReLU.
func addReLU[T Float](dst, a, b []T) bool { return false }

// normReLUPool has no vector form here: the caller of NormReLUPoolInto runs
// BatchNormInto and MaxPoolInto.
func normReLUPool[T Float](y, x []T, n, c, w int, mean, inv, gamma, beta []T) bool { return false }
