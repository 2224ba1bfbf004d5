package tensor

import (
	"fmt"
	"sync/atomic"
)

// This file holds the allocation-free kernels: cache-blocked matrix
// multiplication writing into caller-owned buffers, the *Into variants of
// the elementwise and im2col transforms, and the process-wide kernel
// parallelism knob. The *Into family is the one set of kernels both paths
// compute with: the inference hot path (nn.ForwardInfer, comm serving
// workers) calls it directly, and training's ConvForward/ConvBackward fan
// its per-sample calls out across goroutines. All *Into kernels are strictly
// serial — a serving process parallelizes at exactly one level, its worker
// pool, never inside a kernel. The allocating MatMul, MatMulTransB, Im2Col
// and Col2Im have no caller outside this package's tests, which use them as
// independent references.
//
// Every kernel is written once over the element type. Exactly two pieces of
// arithmetic are per-type, both selected inside the generic function by the
// element type alone: the inner matmul panel (matmulRows → matmulRowsF32)
// and the a×bᵀ row of dot products (matmulTransBRow → dot32). They are the
// only places where the f64 oracle's bit-identity (strictly sequential
// accumulation) and the f32 backend's speed (a reassociated, unrolled
// reduction) genuinely conflict; see DESIGN.md §2i.

// kernelWorkers caps how many goroutines parallelFor may use; 0 means
// GOMAXPROCS (the historical behavior).
var kernelWorkers atomic.Int32

// SetKernelParallelism bounds the goroutines the allocating kernels (MatMul,
// ConvForward, …) may fan out across; n <= 0 restores the GOMAXPROCS
// default. Serving processes whose comm worker pool already saturates the
// cores set this to 1 so kernels never nest a second level of parallelism
// under the pool — the oversubscription behind a once-measured 0.94×
// concurrent "speedup". The *Into kernels are always serial and ignore this
// knob.
func SetKernelParallelism(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int32(n))
}

// KernelParallelism reports the current cap (0 = GOMAXPROCS).
func KernelParallelism() int { return int(kernelWorkers.Load()) }

// Blocking factors for the tiled matmul: the [blockK × blockJ] panel of b
// (64 KiB of float64) stays cache-resident while every output row of the
// row-block consumes it. The f32 panel is twice as wide — float32 halves the
// element size, so it occupies the same 64 KiB.
const (
	matmulBlockK    = 64
	matmulBlockJ    = 128
	matmulBlockJF32 = 2 * matmulBlockJ
)

// matmulRows computes out[i0:i1) = a[i0:i1)×b for row-major a:[m,k],
// b:[k,n], out:[m,n], tiled over (k, j). Output rows are zeroed first.
// float32 takes the unrolled panel below; every other element type —
// float64, the oracle — accumulates in strictly ascending p order, matching
// the naive kernel bit for bit, so parallel and serial callers agree exactly.
func matmulRows[T Float](out, a, b []T, i0, i1, k, n int) {
	if o, ok := any(out).([]float32); ok {
		matmulRowsF32(o, any(a).([]float32), any(b).([]float32), i0, i1, k, n)
		return
	}
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += matmulBlockK {
		kend := min(kb+matmulBlockK, k)
		for jb := 0; jb < n; jb += matmulBlockJ {
			jend := min(jb+matmulBlockJ, n)
			for i := i0; i < i1; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n+jb : i*n+jend]
				for p := kb; p < kend; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n+jb : p*n+jend]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// matmulRowsF32 is matmulRows' float32 panel: same tiling, but the inner
// kernel folds four k-rows of b into one pass over the output panel. The
// serving bodies' post-pool convolutions have tiny spatial panels (oh*ow of
// 16, 4, even 1 after the stride-2 blocks), so one axpy pass per (i, p) pair
// costs more in loop overhead than in arithmetic; four multiplies per inline
// j-loop quarter the passes over orow. gc does not auto-vectorize — the win
// is fewer loads and stores of orow, not SIMD.
//
// This is NOT the sequential summation order. By the Go spec
// `orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]` evaluates as
// orow[j] + (((a0*b0[j] + a1*b1[j]) + a2*b2[j]) + a3*b3[j]): the four
// products are summed among themselves first and the group is then added to
// the running total, where the sequential loop adds each product to the
// total in turn. The results differ in the last bits, which is why this
// panel stays per-type (the f64 oracle must not reassociate) and why what
// holds it to the oracle is the 1e-5 relative drift tests
// (TestMatMulInto32MatchesF64, nn.TestCompileDrift, audit/precision_test),
// not order equality. The zero-skip applies only to the k-tail rows.
func matmulRowsF32(out, a, b []float32, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += matmulBlockK {
		kend := min(kb+matmulBlockK, k)
		for jb := 0; jb < n; jb += matmulBlockJF32 {
			jend := min(jb+matmulBlockJF32, n)
			for i := i0; i < i1; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n+jb : i*n+jend]
				p := kb
				for ; p+4 <= kend; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					b0 := b[p*n+jb : p*n+jend][:len(orow)]
					b1 := b[(p+1)*n+jb : (p+1)*n+jend][:len(orow)]
					b2 := b[(p+2)*n+jb : (p+2)*n+jend][:len(orow)]
					b3 := b[(p+3)*n+jb : (p+3)*n+jend][:len(orow)]
					for j := range orow {
						orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < kend; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n+jb : p*n+jend]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// matmulTransBRow computes one output row of a×bᵀ: orow[j] = arow·b[j] over
// the n rows of b:[n,k]. float32 takes the eight-accumulator dot below;
// every other element type sums sequentially (the oracle's order).
func matmulTransBRow[T Float](orow, arow, b []T, k int) {
	if o, ok := any(orow).([]float32); ok {
		a32, b32 := any(arow).([]float32), any(b).([]float32)
		for j := range o {
			o[j] = dot32(a32, b32[j*k:(j+1)*k])
		}
		return
	}
	for j := range orow {
		brow := b[j*k : (j+1)*k]
		var s T
		for p, av := range arow {
			s += av * brow[p]
		}
		orow[j] = s
	}
}

// dot32 computes the inner product of equal-length slices with eight
// independent accumulators, combined pairwise at the end: eight dependency
// chains the CPU can overlap instead of one, and an error chain an eighth as
// long as a single running sum — a different association from the sequential
// dot, held to the oracle by the same drift tests as matmulRowsF32.
func dot32(x, y []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(x) && i+8 <= len(y); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		s0 += xv[0] * yv[0]
		s1 += xv[1] * yv[1]
		s2 += xv[2] * yv[2]
		s3 += xv[3] * yv[3]
		s4 += xv[4] * yv[4]
		s5 += xv[5] * yv[5]
		s6 += xv[6] * yv[6]
		s7 += xv[7] * yv[7]
	}
	s := ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// matMulDims validates the operand shapes of dst = op(a)×op(b), where op
// transposes when the matching flag is set, and returns (m, k, n). A nil dst
// shape skips the destination check (the allocating kernels size their own).
func matMulDims(op string, dst, a, b []int, transA, transB bool) (m, k, n int) {
	if len(a) != 2 || len(b) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors", op))
	}
	m, k = a[0], a[1]
	if transA {
		m, k = k, m
	}
	k2, n := b[0], b[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", op, k, k2))
	}
	if dst != nil && (len(dst) != 2 || dst[0] != m || dst[1] != n) {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst, m, n))
	}
	return m, k, n
}

// MatMulInto computes dst = a×b for 2-D tensors [m,k]·[k,n] → [m,n] into the
// caller-owned dst, serially, with the cache-blocked kernel. dst must not
// alias a or b. At float64 the result is bit-identical to MatMul.
func MatMulInto[T Float](dst, a, b *Dense[T]) *Dense[T] {
	m, k, n := matMulDims("MatMulInto", dst.Shape, a.Shape, b.Shape, false, false)
	matmulRows(dst.Data, a.Data, b.Data, 0, m, k, n)
	return dst
}

// MatMulInto32 is MatMulInto at float32.
func MatMulInto32(dst, a, b *Tensor32) *Tensor32 { return MatMulInto(dst, a, b) }

// MatMulTransBInto computes dst = a×bᵀ for a:[m,k], b:[n,k] → [m,n] into the
// caller-owned dst, serially.
func MatMulTransBInto[T Float](dst, a, b *Dense[T]) *Dense[T] {
	m, k, n := matMulDims("MatMulTransBInto", dst.Shape, a.Shape, b.Shape, false, true)
	for i := 0; i < m; i++ {
		matmulTransBRow(dst.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, k)
	}
	return dst
}

// MatMulTransAInto computes dst = aᵀ×b for a:[k,m], b:[k,n] → [m,n] into the
// caller-owned dst, serially.
func MatMulTransAInto[T Float](dst, a, b *Dense[T]) *Dense[T] {
	m, k, n := matMulDims("MatMulTransAInto", dst.Shape, a.Shape, b.Shape, true, false)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for p := 0; p < k; p++ {
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// AddInto computes dst = a + b elementwise into the caller-owned dst. dst
// may alias a or b.
func AddInto[T Float](dst, a, b *Dense[T]) *Dense[T] {
	dst.checkSame(a, "AddInto")
	dst.checkSame(b, "AddInto")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// Im2ColInto expands one [C,H,W] image into the caller-owned patch matrix
// dst of shape [C*KH*KW, OH*OW] (see Im2Col). dst is fully overwritten,
// zero-padding included.
func Im2ColInto[T Float](dst, x *Dense[T], kh, kw, stride, pad int) *Dense[T] {
	if len(x.Shape) != 3 {
		panic("tensor: Im2ColInto expects [C,H,W]")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(dst.Shape) != 2 || dst.Shape[0] != c*kh*kw || dst.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want [%d %d]", dst.Shape, c*kh*kw, oh*ow))
	}
	im2colSlice(dst.Data, x.Data, c, h, w, kh, kw, stride, pad, oh, ow)
	return dst
}

// im2colSlice is the raw-slice im2col under Im2ColInto and the serving conv
// kernel; dst is fully overwritten, zero-padding included.
func im2colSlice[T Float](dst, src []T, c, h, w, kh, kw, stride, pad, oh, ow int) {
	for i := range dst {
		dst[i] = 0
	}
	im2colFill(dst, src, c, h, w, kh, kw, stride, pad, oh, ow)
}

// im2colFill writes every in-bounds tap of the patch matrix into dst, which
// must already be zero where padding reads (Im2Col hands it a fresh tensor).
func im2colFill[T Float](dst, src []T, c, h, w, kh, kw, stride, pad, oh, ow int) {
	colStride := oh * ow
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				rowBase := ((ci*kh+ky)*kw + kx) * colStride
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					srcRow := chanBase + iy*w
					dstRow := rowBase + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[dstRow+ox] = src[srcRow+ix]
					}
				}
			}
		}
	}
}

// addBias adds bias[o] to every element of channel o of one sample's
// [OC, hw] output.
func addBias[T Float](dst, bias []T, hw int) {
	for o, b := range bias {
		row := dst[o*hw : (o+1)*hw]
		for j := range row {
			row[j] += b
		}
	}
}

// ConvForwardInto computes the batched convolution of ConvForward into the
// caller-owned output y:[N,OC,OH,OW], using cols (shape [C*KH*KW, OH*OW]) as
// the per-sample im2col scratch; bias may be nil. Samples run serially — the
// serving path's one-level-of-parallelism rule — and no im2col matrices are
// retained, so the kernel performs zero allocations. At float64 the result
// is bit-identical to ConvForward.
func ConvForwardInto[T Float](y, x, weight, bias, cols *Dense[T], kh, kw, stride, pad int) *Dense[T] {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oc := weight.Shape[0]
	if weight.Shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: ConvForwardInto weight %v vs c*kh*kw=%d", weight.Shape, c*kh*kw))
	}
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != oc || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto y shape %v, want [%d %d %d %d]", y.Shape, n, oc, oh, ow))
	}
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto cols shape %v, want [%d %d]", cols.Shape, c*kh*kw, oh*ow))
	}
	hw := oh * ow
	per := c * h * w
	for i := 0; i < n; i++ {
		im2colSlice(cols.Data, x.Data[i*per:(i+1)*per], c, h, w, kh, kw, stride, pad, oh, ow)
		dst := y.Data[i*oc*hw : (i+1)*oc*hw]
		matmulRows(dst, weight.Data, cols.Data, 0, oc, c*kh*kw, hw)
		if bias != nil {
			addBias(dst, bias.Data[:oc], hw)
		}
	}
	return y
}

// ConvForwardInto32 is ConvForwardInto at float32.
func ConvForwardInto32(y, x, weight, bias, cols *Tensor32, kh, kw, stride, pad int) *Tensor32 {
	return ConvForwardInto(y, x, weight, bias, cols, kh, kw, stride, pad)
}
