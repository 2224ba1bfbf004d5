package tensor

import (
	"fmt"
	"sync/atomic"
)

// This file holds the allocation-free kernels: register-tiled matrix
// multiplication writing into caller-owned buffers, the *Into variants of
// the elementwise and im2col transforms, ConvForwardInto, and the
// process-wide kernel parallelism knob. (im2col itself, col2im and max
// pooling live in gather.go, driven by one table per window geometry.) The
// *Into family is the one set of kernels both paths compute with: the
// inference hot path (nn.ForwardInfer, comm serving workers) calls it
// directly, and training's ConvForward/ConvBackward fan its per-sample calls
// out across goroutines. All *Into kernels are strictly serial — a serving
// process parallelizes at exactly one level, its worker pool, never inside a
// kernel. kernels_ref_test.go holds the panels and the gather table to the
// loops they replaced.
//
// Every kernel is written once over the element type, except the inner
// matmul panel (matmulRows → matmulRowsF64, matmulRowsF32) and the a×bᵀ row
// of dot products (matmulTransBRow → dot32), each selected inside the
// generic function by the element type alone. The f32 two are where the f64
// oracle's bit-identity (strictly sequential accumulation) and the f32
// backend's association (a reassociated reduction, pinned by the f32 golden
// digests) genuinely conflict; see DESIGN.md §2i. matmulRowsF64 keeps the
// oracle's order in a register tile with one definition in Go
// (tile8x4F64Go, the tile on every GOARCH but amd64) and one AVX2
// transcription in kernels_amd64.s (behind tile8x4F64), chosen by a CPU
// check made once at package init, that the tests hold to it bit for bit.
// matmulRowsF32 is one plain loop: no serving body runs it.
//
// The compiled convolution does not come through here: nn.Compile packs
// its weights for the direct kernel of direct.go (ConvDirectInto), which
// computes the panel's bits at each precision — matmulRowsF32's at
// float32, matmulRowsF64's at float64 — over each output position's taps
// inside the image, with no im2col and no product against padding. It has
// one Go definition per precision (convDirectF32Go, convDirectF64Go) and
// one transcription each, on AVX2 behind the same CPU check. An f64 conv
// with a weight that is not finite compiles to ConvForwardInto instead.
// Batch norm, ReLU, the residual add and pooling have Go forms here and in
// elementwise.go and gather.go; a compiled body runs them fused into the
// convolution's epilogue and two vector passes (elementwise.go).
// ConvForwardInto, im2col and the panels remain the public convolution,
// which the per-layer bench rows time; the live f64 oracle
// (nn.Network.ForwardInfer) and training run it at float64.
//
// Every product these kernels (and Dense.Dot and AddScaledInPlace) add is
// converted to its type first, as in c += float64(x*b). The conversion
// rounds the product (Go spec, "Floating-point operators"), so gc fuses the
// multiply and the add on no GOARCH (it does on arm64 without it), and the
// Go forms compute the same bits everywhere.

// kernelWorkers caps how many goroutines parallelFor may use; 0 means
// GOMAXPROCS (the historical behavior).
var kernelWorkers atomic.Int32

// SetKernelParallelism bounds the goroutines the training kernels
// (ConvForward, ConvBackward) may fan out across; n <= 0 restores the
// GOMAXPROCS default. A process that runs those kernels beside a goroutine
// pool of its own caps them so the two levels do not nest
// (comm.PinKernelParallelism). The *Into kernels, and so every serving
// pass, are always serial and ignore this knob.
func SetKernelParallelism(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int32(n))
}

// matmulRows computes out[i0:i1) = a[i0:i1)×b for row-major a:[m,k],
// b:[k,n], out:[m,n], overwriting those rows and touching no others. Each
// element type has its panel: float64, the oracle, takes matmulRowsF64 and
// float32 matmulRowsF32.
func matmulRows[T Float](out, a, b []T, i0, i1, k, n int) {
	if o, ok := any(out).([]float32); ok {
		matmulRowsF32(o, any(a).([]float32), any(b).([]float32), i0, i1, k, n)
		return
	}
	matmulRowsF64(any(out).([]float64), any(a).([]float64), any(b).([]float64), i0, i1, k, n)
}

// matmulRowsF64 is the f64 oracle's panel: every output accumulates in
// strictly ascending p order from +0, skipping zero weights, matching the
// naive kernel bit for bit, so parallel and serial callers agree exactly.
//
// The output is register-tiled: an 8-row × 4-column tile of out lives in
// registers for the whole k loop and is stored once at the end
// (tile8x4F64), so each step of p costs eight loads of a, one four-wide
// load of b and 32 multiply-adds, with no load or store of out. The
// serving bodies' panels are tiny (n = oh*ow of 16, 4, even 1 after the
// stride-2 blocks), where an axpy form that re-loads and re-stores
// out[i][j] for every (i, p) pair spends more on that traffic than on the
// arithmetic. Rows past the panel's end repeat its last row (panelRow):
// they compute the same sums as that row and store them to the same place.
// The n mod 4 columns left over run in a pass of their own, in Go, as 4×1
// tiles (matmulColsF64): a serving body's last panels can be all columns
// (n = 1 once a block reaches 1×1).
func matmulRowsF64(out, a, b []float64, i0, i1, k, n int) {
	if n >= 4 {
		var rows, outs [8][]float64
		for i := i0; i < i1; i += 8 {
			for r := range rows {
				rows[r] = panelRow(a, i+r, i1, k)
				outs[r] = panelRow(out, i+r, i1, n)
			}
			for j := 0; j+4 <= n; j += 4 {
				var c [8][4]float64
				tile8x4F64(&c, &rows, b[j:], n, k)
				for r, o := range outs {
					*(*[4]float64)(o[j : j+4]) = c[r]
				}
			}
		}
	}
	if n&3 != 0 {
		matmulColsF64(out, a, b, i0, i1, k, n)
	}
}

// matmulColsF64 computes matmulRowsF64's n mod 4 columns left over, four
// rows per pass so that four sums share each b load. It is a function of
// its own so that its loop has the registers to itself; inside
// matmulRowsF64 gc spilled the loop counter and b to the stack.
func matmulColsF64(out, a, b []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i += 4 {
		a0, o0 := panelRow(a, i, i1, k), panelRow(out, i, i1, n)
		a1, o1 := panelRow(a, i+1, i1, k)[:len(a0)], panelRow(out, i+1, i1, n)
		a2, o2 := panelRow(a, i+2, i1, k)[:len(a0)], panelRow(out, i+2, i1, n)
		a3, o3 := panelRow(a, i+3, i1, k)[:len(a0)], panelRow(out, i+3, i1, n)
		for j := n &^ 3; j < n; j++ {
			var c0, c1, c2, c3 float64
			off := j
			for p, x0 := range a0 {
				bv := b[off]
				off += n
				if x0 != 0 {
					c0 += float64(x0 * bv)
				}
				if x1 := a1[p]; x1 != 0 {
					c1 += float64(x1 * bv)
				}
				if x2 := a2[p]; x2 != 0 {
					c2 += float64(x2 * bv)
				}
				if x3 := a3[p]; x3 != 0 {
					c3 += float64(x3 * bv)
				}
			}
			o0[j], o1[j], o2[j], o3[j] = c0, c1, c2, c3
		}
	}
}

// tile8x4F64Go adds the first steps products to an 8×4 tile, one at a time
// in ascending p: c[r] += a[r][p]·b row p, columns 0..3, skipped where
// a[r][p] == 0, where row p of b starts at b[p*n]. It is the portable form
// of tile8x4F64 and defines the bits its SIMD form must reproduce: each
// product rounded (the explicit float64 conversion keeps gc from fusing it
// into the add on any GOARCH), then added and rounded; a NaN weight is
// added (NaN != 0), a ±0 one skipped. It walks the tile two rows at a
// time, so eight accumulators fit the registers of every GOARCH; each
// output's sum is the same whatever the walk.
func tile8x4F64Go(c *[8][4]float64, a *[8][]float64, b []float64, n, steps int) {
	for r := 0; r < 8; r += 2 {
		c00, c01, c02, c03 := c[r][0], c[r][1], c[r][2], c[r][3]
		c10, c11, c12, c13 := c[r+1][0], c[r+1][1], c[r+1][2], c[r+1][3]
		a0, a1 := a[r][:steps], a[r+1][:steps]
		off := 0
		for p, x0 := range a0 {
			b0, b1, b2, b3 := b[off], b[off+1], b[off+2], b[off+3]
			off += n
			if x0 != 0 {
				c00 += float64(x0 * b0)
				c01 += float64(x0 * b1)
				c02 += float64(x0 * b2)
				c03 += float64(x0 * b3)
			}
			if x1 := a1[p]; x1 != 0 {
				c10 += float64(x1 * b0)
				c11 += float64(x1 * b1)
				c12 += float64(x1 * b2)
				c13 += float64(x1 * b3)
			}
		}
		c[r], c[r+1] = [4]float64{c00, c01, c02, c03}, [4]float64{c10, c11, c12, c13}
	}
}

// panelRow returns row i of the row-major [.., w] matrix s, or row i1-1 when
// i is past the panel's last row: the short last row pair of a panel
// recomputes that row rather than taking a code path of its own.
func panelRow[T Float](s []T, i, i1, w int) []T {
	i = min(i, i1-1)
	return s[i*w : (i+1)*w]
}

// matmulRowsF32 is matmulRows' float32 panel: each output sums its
// products in groups of four k-rows, s += a0·b0 + a1·b1 + a2·b2 + a3·b3,
// from s = +0, and adds the last k mod 4 terms one at a time, skipping zero
// weights.
//
// This is NOT the sequential summation order. By the Go spec the group
// evaluates as s + (((a0*b0 + a1*b1) + a2*b2) + a3*b3): the four products
// are summed among themselves first and the group is then added to the
// running total, where the sequential loop adds each product to the total
// in turn. The results differ in the last bits, which is why this panel
// stays per-type (the f64 oracle must not reassociate, and the f32 golden
// digests pin this association, which the direct kernel of direct.go
// computes) and why what holds it to the oracle is the 1e-5 relative drift
// tests (TestMatMulInto32MatchesF64, nn.TestCompileDrift,
// audit/precision_test), not order equality. The zero-skip applies only to
// the tail.
func matmulRowsF32(out, a, b []float32, i0, i1, k, n int) {
	k4 := k &^ 3
	for i := i0; i < i1; i++ {
		arow, orow := a[i*k:(i+1)*k], out[i*n:(i+1)*n]
		for j := range orow {
			var s float32
			q := j
			for p := 0; p < k4; p, q = p+4, q+4*n {
				s += float32(arow[p]*b[q]) + float32(arow[p+1]*b[q+n]) +
					float32(arow[p+2]*b[q+2*n]) + float32(arow[p+3]*b[q+3*n])
			}
			for p := k4; p < k; p, q = p+1, q+n {
				if x := arow[p]; x != 0 {
					s += float32(x * b[q])
				}
			}
			orow[j] = s
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
			s += T(av * brow[p])
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
		s0 += float32(xv[0] * yv[0])
		s1 += float32(xv[1] * yv[1])
		s2 += float32(xv[2] * yv[2])
		s3 += float32(xv[3] * yv[3])
		s4 += float32(xv[4] * yv[4])
		s5 += float32(xv[5] * yv[5])
		s6 += float32(xv[6] * yv[6])
		s7 += float32(xv[7] * yv[7])
	}
	s := ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
	for ; i < len(x); i++ {
		s += float32(x[i] * y[i])
	}
	return s
}

// matMulDims validates the operand shapes of dst = op(a)×op(b), where op
// transposes when the matching flag is set, and returns (m, k, n).
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
	if len(dst) != 2 || dst[0] != m || dst[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst, m, n))
	}
	return m, k, n
}

// MatMulInto computes dst = a×b for 2-D tensors [m,k]·[k,n] → [m,n] into the
// caller-owned dst, serially, with the register-tiled kernel. dst must not
// alias a or b. At float64 every element is summed in ascending k order
// from zero, skipping zero weights: the naive loop's bits.
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
				orow[j] += T(av * bv)
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
	t := windows.get(window{h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad})
	oh, ow := t.oh, t.ow
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != oc || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto y shape %v, want [%d %d %d %d]", y.Shape, n, oc, oh, ow))
	}
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto cols shape %v, want [%d %d]", cols.Shape, c*kh*kw, oh*ow))
	}
	hw := oh * ow
	per := c * h * w
	for i := 0; i < n; i++ {
		im2colSlice(cols.Data, x.Data[i*per:(i+1)*per], c, h*w, t)
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
