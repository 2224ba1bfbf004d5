package tensor

import (
	"fmt"
	"math"
)

// This file holds the elementwise steps of a compiled body that run beside
// its convolutions: batch norm, ReLU, the residual add and the body's entry
// (batch norm, ReLU and a max-pool). Their Go forms here, with MaxPoolInto
// and AddInto, define the bits. Two of them also have a vector form, a
// single pass on AVX2 behind the CPU check of the other kernels: the
// residual add with its ReLU (AddReLUInto) and the entry at the two plane
// sizes the served architectures have (NormReLUPoolInto). The third vector
// form is the direct convolution's epilogue (DirectConv.SetEpilogue), which
// applies a batch norm and its ReLU to each sum in registers before the
// store. Each vector form computes its Go form's IEEE operations in the same
// order, so the bits are equal. Where no vector form runs, the Go passes run
// one after another as they are: fused into one scalar pass they were
// slower, not faster (DESIGN.md §2i).

// BatchNormInto writes batch norm's inference transform of x ([N, C, H, W])
// into y (x's shape; y may be x): each value v of channel c becomes
// gamma[c]·((v − mean[c])·inv[c]) + beta[c], the product rounded before the
// add so that gc fuses the two on no GOARCH. nn's BatchNorm2D.Backward
// recomputes x̂ as the same (v − mean)·inv; the two expressions must stay
// identical.
func BatchNormInto[T Float](y, x *Dense[T], mean, inv, gamma, beta []T) *Dense[T] {
	y.checkSame(x, "BatchNormInto")
	batchNorm(y, x, 0, &[4][]T{mean, inv, gamma, beta})
	return y
}

// batchNorm is BatchNormInto over channels [c0, C) of x, with the
// constants k: mean, inv, gamma and beta. Taking them by pointer, and the
// arithmetic written out in the loop rather than in a generic helper,
// keeps the inner loop to nine instructions with nothing spilled: an
// inlined generic helper added a nil check and two moves per element.
func batchNorm[T Float](y, x *Dense[T], c0 int, k *[4][]T) {
	n, c, hw := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	for ci := c0; ci < c; ci++ {
		m, v, g, bt := k[0][ci], k[1][ci], k[2][ci], k[3][ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			src, dst := x.Data[base:base+hw], y.Data[base:base+hw]
			for j, s := range src {
				dst[j] = T(g*((s-m)*v)) + bt
			}
		}
	}
}

// ReLU writes max(0, src) into dst; dst may alias src. Every element that
// is not greater than zero — negatives, −0 and NaN — becomes +0, and +Inf
// stays.
//
// It selects on the bits instead of branching on v > 0, which mispredicts
// over live activations, about half of them negative. An element's bits b
// are kept when b−1, unsigned, is below the bits of +Inf: exactly when b is
// a positive float up to +Inf, since +0 wraps to the top and −0, negatives
// and NaNs lie above. A plain if-assignment over integers compiles to a
// conditional move (CMOVQHI on amd64). nn's reluRef (relu_ref_test.go) is
// the branchy form it reproduces bit for bit.
func ReLU[T Float](dst, src []T) {
	if d, ok := any(dst).([]float32); ok {
		reluF32(d, any(src).([]float32))
		return
	}
	reluF64(any(dst).([]float64), any(src).([]float64))
}

func reluF64(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		b, r := math.Float64bits(v), uint64(0)
		if b-1 < 0x7FF0000000000000 {
			r = b
		}
		dst[i] = math.Float64frombits(r)
	}
}

func reluF32(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		b, r := math.Float32bits(v), uint32(0)
		if b-1 < 0x7F800000 {
			r = b
		}
		dst[i] = math.Float32frombits(r)
	}
}

// AddReLUInto writes ReLU(a + b) into dst (all one shape; dst may alias a
// or b) in one pass, and reports true, where this host has that pass's
// vector form: on AVX2, VADDPS (VADDPD) then VMAXPS (VMAXPD) against +0,
// which returns the sum where it is greater than +0 and +0 otherwise (−0
// and NaN included), ReLU's select. Elsewhere it writes nothing and
// reports false, and the caller runs the definition: AddInto, then ReLU.
func AddReLUInto[T Float](dst, a, b *Dense[T]) bool {
	dst.checkSame(a, "AddReLUInto")
	dst.checkSame(b, "AddReLUInto")
	return addReLU(dst.Data, a.Data, b.Data)
}

// NormReLUPoolInto writes batch norm (BatchNormInto's constants), ReLU and
// then a max-pool of window k and stride stride over x ([N, C, H, W]) into
// y ([N, C, OH, OW]) in one pass, and reports true, where this host has
// that pass's vector form: AVX2, a 2×2 window of stride 2, and 16×16 or 8×8
// planes, the entries of DefaultArch's and TinyArch's bodies. Elsewhere it
// writes nothing and reports false, and the caller runs the definition:
// BatchNormInto, then MaxPoolInto at floor +0 (the ReLU folded into the
// pool, as nn.Compile folds it). The vector form rectifies every tap first
// and then takes the window's maximum; the rectified taps are +0 or
// positive, never −0 or NaN, so their maximum is the same whatever the
// order, and it is MaxPoolInto's at floor +0: a tap wins there only when
// it is greater than +0, and a tap that is not is +0 once rectified.
func NormReLUPoolInto[T Float](y, x *Dense[T], mean, inv, gamma, beta []T, k, stride int) bool {
	if len(x.Shape) != 4 || len(y.Shape) != 4 {
		panic(fmt.Sprintf("tensor: NormReLUPoolInto shapes %v, %v", y.Shape, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if k != 2 || stride != 2 || h != w || h != 16 && h != 8 {
		return false
	}
	if y.Shape[0] != n || y.Shape[1] != c || y.Shape[2] != h/2 || y.Shape[3] != w/2 {
		panic(fmt.Sprintf("tensor: NormReLUPoolInto y shape %v for x %v", y.Shape, x.Shape))
	}
	return normReLUPool(y.Data, x.Data, n, c, w, mean[:c], inv[:c], gamma[:c], beta[:c])
}
