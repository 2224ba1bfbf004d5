package tensor

import (
	"fmt"
	"math"
)

// This file keeps the kernels that faster ones replaced, as references, and
// the allocating and table-looking-up entry points only the tests call.
//
// The matmul panels matmulRows ran before it held its output tiles in
// registers — cache-blocked over (k, j), one axpy pass over an output row
// per k-row — kept unchanged as references: the register-tiled panels must
// reproduce their bits exactly (panel_test.go), not merely come close.

// refBlockK is the k extent of the references' cache blocks. The f32
// reference restarts its groups of four at every block; 64 being a multiple
// of four, its groups fall where the tiled panel's do, and only the last
// block has a tail.
const refBlockK = 64

// refMatmulRowsF64 is the f64 oracle's sequential panel: every out[i][j] is
// 0 + a[i][0]·b[0][j] + a[i][1]·b[1][j] + …, p ascending, zero weights
// skipped, read back from and stored to out once per (i, p) pair.
func refMatmulRowsF64(out, a, b []float64, i0, i1, k, n int) {
	const blockJ = 128
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += refBlockK {
		kend := min(kb+refBlockK, k)
		for jb := 0; jb < n; jb += blockJ {
			jend := min(jb+blockJ, n)
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

// refMatmulRowsF32 is the f32 panel's association: within each 64-wide k
// block, groups of four products summed among themselves and then added to
// the running total, the block's tail added one term at a time with zero
// weights skipped.
func refMatmulRowsF32(out, a, b []float32, i0, i1, k, n int) {
	const blockJ = 256
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += refBlockK {
		kend := min(kb+refBlockK, k)
		for jb := 0; jb < n; jb += blockJ {
			jend := min(jb+blockJ, n)
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

// The window loops the gather table replaced (gather.go), kept unchanged as
// references: im2col, col2im and max pooling through the table must
// reproduce them bit for bit (gather_test.go). Each re-derives every tap's
// position from the geometry and tests it against the border.

// refIm2colFill writes every in-bounds tap of the patch matrix into dst,
// which must already be zero where padding reads.
func refIm2colFill[T Float](dst, src []T, c, h, w, kh, kw, stride, pad, oh, ow int) {
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

// refIm2col is the replaced im2colSlice: zero the patch matrix, then fill
// its in-bounds taps.
func refIm2col[T Float](dst, src []T, c, h, w, kh, kw, stride, pad int) {
	for i := range dst {
		dst[i] = 0
	}
	oh, ow := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	refIm2colFill(dst, src, c, h, w, kh, kw, stride, pad, oh, ow)
}

// refCol2imAdd scatter-adds the patch matrix src into the [C,H,W] image
// dst, accumulating onto what dst already holds.
func refCol2imAdd(dst, src []float64, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
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
					dstRow := chanBase + iy*w
					srcRow := rowBase + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[dstRow+ix] += src[srcRow+ox]
					}
				}
			}
		}
	}
}

// refMaxPool is the replaced nn.maxPoolInfer loop over the [N,C,H,W] x,
// its running maximum starting at floor (the loop started at −Inf).
func refMaxPool[T Float](dst, x []T, n, c, h, w, k, stride int, floor T) {
	oh, ow := ConvOutSize(h, k, stride, 0), ConvOutSize(w, k, stride, 0)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := floor
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx
							if ix >= w {
								continue
							}
							if v := x[base+iy*w+ix]; v > best {
								best = v
							}
						}
					}
					dst[oi] = best
					oi++
				}
			}
		}
	}
}

// refMaxPoolGrad is the replaced nn.MaxPool2D.Backward loop: each output
// gradient of dy added to the input position that won its window of x.
func refMaxPoolGrad(dx, x, dy []float64, n, c, h, w, k, stride int) {
	oh, ow := ConvOutSize(h, k, stride, 0), ConvOutSize(w, k, stride, 0)
	oi := 0
	for base := 0; base < n*c*h*w; base += h * w {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bestIdx := math.Inf(-1), -1
				for iy := oy * stride; iy < min(oy*stride+k, h); iy++ {
					for ix := ox * stride; ix < min(ox*stride+k, w); ix++ {
						if v := x[base+iy*w+ix]; v > best {
							best, bestIdx = v, base+iy*w+ix
						}
					}
				}
				dx[bestIdx] += dy[oi]
				oi++
			}
		}
	}
}

// refMatMul is a×b for [m,k]·[k,n] through refMatmulRowsF64.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	refMatmulRowsF64(out.Data, a.Data, b.Data, 0, m, k, n)
	return out
}

// matMul is a×b through the serving kernel MatMulInto.
func matMul(a, b *Tensor) *Tensor { return MatMulInto(New(a.Shape[0], b.Shape[1]), a, b) }

// hardwareNaN returns the NaN this CPU's arithmetic makes, 0·Inf. It is the
// only NaN the bit-for-bit kernel tests put in an operand: when both
// operands of an add are NaNs of different payloads, which payload the sum
// keeps depends on operand order, and neither a Go tile nor its reference
// fixes that order.
//
//go:noinline
func hardwareNaN() float64 { return 0 * math.Inf(1) }

// transpose returns the transpose of a 2-D tensor.
func transpose(t *Tensor) *Tensor {
	m, n := t.Shape[0], t.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// Im2ColInto expands one [C,H,W] image into the caller-owned patch matrix
// dst of shape [C*KH*KW, OH*OW] through the convolution's own gather,
// im2colSlice, with its table looked up. dst is fully overwritten,
// zero-padding included.
func Im2ColInto[T Float](dst, x *Dense[T], kh, kw, stride, pad int) *Dense[T] {
	if len(x.Shape) != 3 {
		panic("tensor: Im2ColInto expects [C,H,W]")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	t := windows.get(window{h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad})
	if len(dst.Shape) != 2 || dst.Shape[0] != c*kh*kw || dst.Shape[1] != t.oh*t.ow {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want [%d %d]", dst.Shape, c*kh*kw, t.oh*t.ow))
	}
	im2colSlice(dst.Data, x.Data, c, h*w, t)
	return dst
}

// col2imAddTable is col2imAdd with its table looked up, for the external
// test package.
func col2imAddTable(dst, src []float64, c, h, w, kh, kw, stride, pad int) {
	col2imAdd(dst, src, c, h*w, windows.get(window{h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad}))
}

// Exported for panel_test.go and gather_test.go, which enumerate split's
// architectures and so must live in the external test package (split
// imports this one).
var (
	MatmulRows64    = matmulRows[float64]
	MatmulRows32    = matmulRows[float32]
	RefMatmulRows64 = refMatmulRowsF64
	RefMatmulRows32 = refMatmulRowsF32
	HardwareNaN     = hardwareNaN

	RefIm2col64    = refIm2col[float64]
	RefIm2col32    = refIm2col[float32]
	Col2imAdd      = col2imAddTable
	RefCol2imAdd   = refCol2imAdd
	RefMaxPool64   = refMaxPool[float64]
	RefMaxPool32   = refMaxPool[float32]
	RefMaxPoolGrad = refMaxPoolGrad
)
