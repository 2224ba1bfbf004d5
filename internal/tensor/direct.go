package tensor

import (
	"fmt"
	"math"
)

// This file holds the serving bodies' convolution at both precisions: a
// direct convolution over each output position's taps inside the image,
// vectorised across output channels, with no im2col matrix and no product
// against padding. At each precision it computes ConvForwardInto's bits
// exactly (DESIGN.md §2i).
//
// At float32, the panel is matmulRowsF32:
//
//   - matmulRowsF32 sums each output's products in groups of four k-rows,
//     s += ((p0 + p1) + p2) + p3, from s = +0, and adds the k mod 4 tail one
//     product at a time, skipping zero weights.
//   - A padding tap's product is w·(+0) = ±0 when the weight w is finite.
//     Adding ±0 to a nonzero partial sum is exact, so dropping it from a
//     group changes at most the sign of a zero partial sum, and the next
//     nonzero product (or the add to s) erases that sign.
//   - s starts at +0, and a sum is −0 only when both addends are, so s is
//     never −0 and s + (±0) = s: a group whose products are all ±0, or a
//     tail product, adds nothing whether it is dropped or not.
//
// So the f32 kernel walks, for each output position, only the taps inside
// the image, in ascending p, grouped by p/4 as matmulRowsF32 groups them,
// with the tail's zero weights skipped.
//
// At float64, the panel is matmulRowsF64, the oracle: every product added
// to s one at a time in ascending p from s = +0, skipped where the weight is
// ±0. The f64 kernel walks the same tap table but treats every tap as the
// f32 kernel treats a tail tap: the groups' taps and then the tail's, in
// ascending p, each product added to s unless its weight is ±0. A padding
// product is ±0 for a finite weight, and s is never −0, so dropping it
// leaves s as it was, as above.
//
// A weight that is not finite makes a padding product NaN, which neither
// kernel computes: PackConv refuses such weights. nn.Compile then refuses an
// f32 body holding one, and gives an f64 body's layer the im2col panel.
//
// A convolution packed with an epilogue (SetEpilogue) finishes each sum s
// before storing it with the batch norm that follows it in the body, and
// with its ReLU: s − mean, times inv, times gamma, plus beta over the
// output channel's constants, then ReLU's select, the operations
// BatchNormInto and ReLU run on the stored sum, in their order. So the
// output's bits are those of the convolution, the batch norm and the ReLU
// as three passes, with two passes over the activation, and their scratch
// buffers, gone. The kernel holds a block of
// eight output channels' sums in registers at the store, so their
// constants are one vector load each; batch norm as a pass of its own runs
// over 4×4 and 2×2 planes, mostly in loop tails.

// DirectConv is a convolution's weights at element type T in the layout
// the direct kernel reads: row p of the [C·KH·KW, OutC] transpose of the
// [OutC, C·KH·KW] weight matrix, output channels innermost, each row ldw
// (OutC rounded up to a multiple of 8) long so that eight output channels
// fill a block — one vector of float32, two of float64 — the padding lanes
// zero. Weights are converted once, straight into this layout.
//
// An epilogue set by SetEpilogue is packed beside the weights: ep holds
// four rows of ldw, batch norm's mean, inv, gamma and beta per output
// channel, the padding lanes zero, one after another in one allocation
// (the AVX2 routines step from row to row by ldw), and relu marks a ReLU
// after it.
type DirectConv[T Float] struct {
	w                        []T
	ep                       [4][]T
	ldw, outC                int
	inC, kh, kw, stride, pad int
	relu                     bool
}

// PackConv converts the float64 weights w ([OutC, inC·KH·KW]) of a
// convolution with the given window into the direct kernel's layout at T.
// It returns an error for a weight that is not finite at T (±Inf, NaN, or
// at float32 a finite float64 above MaxFloat32): its padding products are
// NaN, which this kernel does not compute.
func PackConv[T Float](w *Tensor, inC, kh, kw, stride, pad int) (*DirectConv[T], error) {
	if len(w.Shape) != 2 || w.Shape[1] != inC*kh*kw {
		panic(fmt.Sprintf("tensor: PackConv weight %v vs c*kh*kw=%d", w.Shape, inC*kh*kw))
	}
	outC, k := w.Shape[0], w.Shape[1]
	d := &DirectConv[T]{ldw: (outC + 7) &^ 7, outC: outC, inC: inC, kh: kh, kw: kw, stride: stride, pad: pad}
	d.w = make([]T, k*d.ldw)
	for o := 0; o < outC; o++ {
		for p, v := range w.Data[o*k : (o+1)*k] {
			f := T(v)
			if math.IsInf(float64(f), 0) || f != f {
				return nil, fmt.Errorf("weight [%d %d] = %v is not finite at %T", o, p, v, f)
			}
			d.w[p*d.ldw+o] = f
		}
	}
	return d, nil
}

// SetEpilogue makes the kernel finish each output with batch norm over
// per-output-channel constants, as BatchNormInto computes it, and then
// with ReLU if relu: output channel o's sum s is stored as
// gamma[o]·((s − mean[o])·inv[o]) + beta[o], rectified if relu. The kernel
// applies it to the eight sums of a block in registers before their store,
// so the batch norm and ReLU that follow a convolution cost no pass of
// their own. A convolution with an epilogue takes no bias.
func (d *DirectConv[T]) SetEpilogue(mean, inv, gamma, beta []T, relu bool) {
	rows := make([]T, 4*d.ldw)
	for r, row := range [][]T{mean, inv, gamma, beta} {
		d.ep[r] = rows[r*d.ldw : (r+1)*d.ldw]
		copy(d.ep[r], row[:d.outC])
	}
	d.relu = relu
}

// epilogue applies d's epilogue to output channels [o0, OutC) of y
// ([N, OutC, OH, OW]): batch norm over the packed constants, as
// BatchNormInto runs it, then ReLU if d.relu. It finishes the channels the
// kernel's Go form computed, each value taking the operations the AVX2
// routines apply to it in registers, in their order, channel by channel
// over the batch as the separate batch-norm pass did. Applied per position
// inside the Go form instead, to the eight sums of a block, it read 4–5 %
// slower per body with the AVX2 path switched off than the separate passes
// it replaces.
func (d *DirectConv[T]) epilogue(y *Dense[T], o0 int) {
	batchNorm(y, y, o0, &d.ep)
	oc, hw := d.outC, y.Shape[2]*y.Shape[3]
	for i := 0; d.relu && i < y.Shape[0]; i++ {
		img := y.Data[(i*oc+o0)*hw : (i+1)*oc*hw]
		ReLU(img, img)
	}
}

// convWindow is the geometry of a direct convolution's tap table: a window
// over c channels.
type convWindow struct {
	window
	c int
}

// convTaps is the tap table of a convWindow. taps is one record per output
// position, in row-major order:
//
//	ng, then ng groups of (n, then n taps), then nt, then nt taps
//
// where each tap is the pair (input offset ci·H·W + iy·W + ix, weight row p)
// of a tap inside the image. The ng groups hold the taps with p below the
// largest multiple of 4 not above C·KH·KW, one group per p/4 that has any,
// taps in ascending p; the nt taps after them are the k mod 4 tail.
type convTaps struct {
	taps   []int32
	oh, ow int
}

// convTables is the process-wide tap table cache.
var convTables tableCache[convWindow, convTaps]

// build computes g's tap table, positions in row-major order.
func (g convWindow) build() convTaps {
	if g.c*g.h*g.w > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: %dx%dx%d image too large for a tap table", g.c, g.h, g.w))
	}
	oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
	ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
	kk := g.kh * g.kw
	k := g.c * kk
	var taps []int32
	// tap reports where weight row p of output position (oy, ox) reads,
	// or ok false for padding.
	tap := func(oy, ox, p int) (off int32, ok bool) {
		ci, ky, kx := p/kk, p%kk/g.kw, p%g.kw
		iy, ix := oy*g.stride+ky-g.pad, ox*g.stride+kx-g.pad
		if iy < 0 || iy >= g.h || ix < 0 || ix >= g.w {
			return 0, false
		}
		return int32((ci*g.h+iy)*g.w + ix), true
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			ng := len(taps)
			taps = append(taps, 0)
			g, n := -1, 0 // the open group's p/4 and the index of its count
			for p := 0; p < k&^3; p++ {
				off, ok := tap(oy, ox, p)
				if !ok {
					continue
				}
				if p/4 != g {
					g, n = p/4, len(taps)
					taps[ng]++
					taps = append(taps, 0)
				}
				taps[n]++
				taps = append(taps, off, int32(p))
			}
			nt := len(taps)
			taps = append(taps, 0)
			for p := k &^ 3; p < k; p++ {
				if off, ok := tap(oy, ox, p); ok {
					taps[nt]++
					taps = append(taps, off, int32(p))
				}
			}
		}
	}
	// An exact-size copy: the table lives as long as the process.
	return convTaps{taps: append([]int32(nil), taps...), oh: oh, ow: ow}
}

// ConvDirectInto is ConvForwardInto over weights packed by PackConv,
// computed by the direct kernel: the same bits, with no im2col scratch,
// and then d's epilogue if it has one. bias may be nil, and must be where d
// has an epilogue. Samples run serially, and nothing is allocated once the
// geometry's tap table is built.
func ConvDirectInto[T Float](y, x *Dense[T], d *DirectConv[T], bias *Dense[T]) *Dense[T] {
	if len(x.Shape) != 4 || x.Shape[1] != d.inC {
		panic(fmt.Sprintf("tensor: ConvDirectInto x shape %v, want [N %d H W]", x.Shape, d.inC))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	t := convTables.get(convWindow{window{h: h, w: w, kh: d.kh, kw: d.kw, stride: d.stride, pad: d.pad}, c})
	oc, hw := d.outC, t.oh*t.ow
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != oc || y.Shape[2] != t.oh || y.Shape[3] != t.ow {
		panic(fmt.Sprintf("tensor: ConvDirectInto y shape %v, want [%d %d %d %d]", y.Shape, n, oc, t.oh, t.ow))
	}
	if bias != nil && d.ep[0] != nil {
		panic("tensor: ConvDirectInto with a bias and an epilogue")
	}
	per, kernel := c*h*w, convDirectKernel[T]()
	for i := 0; i < n; i++ {
		dst := y.Data[i*oc*hw : (i+1)*oc*hw]
		kernel(dst, x.Data[i*per:(i+1)*per], d, t.taps, hw)
		if bias != nil {
			addBias(dst, bias.Data[:oc], hw)
		}
	}
	if o0 := vectorOutC(oc); d.ep[0] != nil && o0 < oc {
		d.epilogue(y, o0)
	}
	return y
}

// convDirectKernel returns the direct kernel at T, which computes one
// image's convolution: convDirectF32 or convDirectF64.
func convDirectKernel[T Float]() func(y, x []T, d *DirectConv[T], taps []int32, hw int) {
	var kernel any = convDirectF64
	if _, f32 := any(T(0)).(float32); f32 {
		kernel = convDirectF32
	}
	return kernel.(func(y, x []T, d *DirectConv[T], taps []int32, hw int))
}

// convDirectF32Go computes output channels [8·b0, min(8·b1, outC)) of one
// image's direct convolution into y ([OutC, hw]) from x ([C, H, W]), the
// packed weights w with rows ldw long, and the image geometry's tap table:
// for each position and each lane, the groups' products summed in order
// from the first, t = p0; t += p1; …, each group then added to the
// position's sum s from +0, and the tail's products added to s one at a
// time, skipped where the weight is ±0. It is the portable form of the
// direct kernel and defines the bits its SIMD form must reproduce (each
// product rounded before its add: the float32 conversion keeps gc from
// fusing the two on any GOARCH).
func convDirectF32Go(y, x, w []float32, ldw, outC, hw int, taps []int32, b0, b1 int) {
	for b := b0; b < b1; b++ {
		lanes := min(8, outC-8*b)
		q := 0
		for j := 0; j < hw; j++ {
			// One sum per lane, spelled out: gc keeps scalars in registers
			// and arrays in memory.
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			ng := taps[q]
			q++
			for ; ng > 0; ng-- {
				n := taps[q]
				xv, wr := x[taps[q+1]], (*[8]float32)(w[int(taps[q+2])*ldw+8*b:])
				q += 3
				t0, t1, t2, t3 := wr[0]*xv, wr[1]*xv, wr[2]*xv, wr[3]*xv
				t4, t5, t6, t7 := wr[4]*xv, wr[5]*xv, wr[6]*xv, wr[7]*xv
				for ; n > 1; n-- {
					xv, wr := x[taps[q]], (*[8]float32)(w[int(taps[q+1])*ldw+8*b:])
					q += 2
					t0 += float32(wr[0] * xv)
					t1 += float32(wr[1] * xv)
					t2 += float32(wr[2] * xv)
					t3 += float32(wr[3] * xv)
					t4 += float32(wr[4] * xv)
					t5 += float32(wr[5] * xv)
					t6 += float32(wr[6] * xv)
					t7 += float32(wr[7] * xv)
				}
				s0, s1, s2, s3 = s0+t0, s1+t1, s2+t2, s3+t3
				s4, s5, s6, s7 = s4+t4, s5+t5, s6+t6, s7+t7
			}
			s := [8]float32{s0, s1, s2, s3, s4, s5, s6, s7}
			nt := taps[q]
			q++
			for ; nt > 0; nt-- {
				xv, wr := x[taps[q]], (*[8]float32)(w[int(taps[q+1])*ldw+8*b:])
				q += 2
				for l, wv := range wr {
					if wv != 0 {
						s[l] += float32(wv * xv)
					}
				}
			}
			for l, v := range s[:lanes] {
				y[(8*b+l)*hw+j] = v
			}
		}
	}
}

// convDirectF64Go computes output channels [8·b0, min(8·b1, outC)) of one
// image's direct convolution at float64, as convDirectF32Go does at float32
// but with every tap a tail tap: for each position and each lane, the
// products of the groups' taps and then of the tail's, added to the
// position's sum s from +0 one at a time in ascending p, skipped where the
// weight is ±0 — matmulRowsF64's order. It is the portable form of the f64
// direct kernel and defines the bits its SIMD form must reproduce. Eight
// lanes to a block, not four, give eight independent sums to overlap: with
// the AVX2 path switched off, a CIFAR-10 f64 body read 37 % slower than
// over the f64 panel's Go tile with four, 4–11 % with eight.
func convDirectF64Go(y, x, w []float64, ldw, outC, hw int, taps []int32, b0, b1 int) {
	for b := b0; b < b1; b++ {
		lanes := min(8, outC-8*b)
		q := 0
		for j := 0; j < hw; j++ {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			// ng groups and then the tail: ng+1 runs, each a count and its
			// taps.
			runs := taps[q] + 1
			q++
			for ; runs > 0; runs-- {
				n := taps[q]
				q++
				for ; n > 0; n-- {
					xv, wr := x[taps[q]], (*[8]float64)(w[int(taps[q+1])*ldw+8*b:])
					q += 2
					if wr[0] != 0 {
						s0 += float64(wr[0] * xv)
					}
					if wr[1] != 0 {
						s1 += float64(wr[1] * xv)
					}
					if wr[2] != 0 {
						s2 += float64(wr[2] * xv)
					}
					if wr[3] != 0 {
						s3 += float64(wr[3] * xv)
					}
					if wr[4] != 0 {
						s4 += float64(wr[4] * xv)
					}
					if wr[5] != 0 {
						s5 += float64(wr[5] * xv)
					}
					if wr[6] != 0 {
						s6 += float64(wr[6] * xv)
					}
					if wr[7] != 0 {
						s7 += float64(wr[7] * xv)
					}
				}
			}
			s := [8]float64{s0, s1, s2, s3, s4, s5, s6, s7}
			for l, v := range s[:lanes] {
				y[(8*b+l)*hw+j] = v
			}
		}
	}
}
