package tensor

import (
	"fmt"
	"math"
)

// This file holds the f32 serving bodies' convolution: a direct convolution
// over each output position's taps inside the image, vectorised across
// output channels, with no im2col matrix and no product against padding.
// It computes ConvForwardInto's float32 bits exactly (DESIGN.md §2i):
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
// So the kernel walks, for each output position, only the taps inside the
// image, in ascending p, grouped by p/4 as matmulRowsF32 groups them, with
// the tail's zero weights skipped. A weight that is not finite makes a
// padding product NaN, which this kernel would drop: PackConv32 refuses such
// weights, so an f32 body holding one does not compile (nn.Compile).

// DirectConv32 is a float32 convolution's weights in the layout the direct
// kernel reads: row p of the [C·KH·KW, OutC] transpose of the [OutC,
// C·KH·KW] weight matrix, output channels innermost, each row ldw (OutC
// rounded up to a multiple of 8) long so that eight output channels fill
// one vector, the padding lanes zero. Weights are narrowed once, straight
// into this layout, so the layer holds no other copy of them.
type DirectConv32 struct {
	w                        []float32
	ldw, outC                int
	inC, kh, kw, stride, pad int
}

// PackConv32 narrows the float64 weights w ([OutC, inC·KH·KW]) of a
// convolution with the given window into the direct kernel's layout. It
// returns an error for a weight that does not narrow to a finite float32
// (±Inf, NaN, or a finite float64 above MaxFloat32): its padding products
// are NaN, which this kernel does not compute.
func PackConv32(w *Tensor, inC, kh, kw, stride, pad int) (*DirectConv32, error) {
	if len(w.Shape) != 2 || w.Shape[1] != inC*kh*kw {
		panic(fmt.Sprintf("tensor: PackConv32 weight %v vs c*kh*kw=%d", w.Shape, inC*kh*kw))
	}
	outC, k := w.Shape[0], w.Shape[1]
	d := &DirectConv32{ldw: (outC + 7) &^ 7, outC: outC, inC: inC, kh: kh, kw: kw, stride: stride, pad: pad}
	d.w = make([]float32, k*d.ldw)
	for o := 0; o < outC; o++ {
		for p, v := range w.Data[o*k : (o+1)*k] {
			f := float32(v)
			if math.IsInf(float64(f), 0) || f != f {
				return nil, fmt.Errorf("weight [%d %d] = %v is not finite at float32", o, p, v)
			}
			d.w[p*d.ldw+o] = f
		}
	}
	return d, nil
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

// ConvDirectInto32 is ConvForwardInto at float32 over weights packed by
// PackConv32, computed by the direct kernel: the same bits, with no im2col
// scratch. bias may be nil. Samples run serially, and nothing is allocated
// once the geometry's tap table is built.
func ConvDirectInto32(y, x *Tensor32, d *DirectConv32, bias *Tensor32) *Tensor32 {
	if len(x.Shape) != 4 || x.Shape[1] != d.inC {
		panic(fmt.Sprintf("tensor: ConvDirectInto32 x shape %v, want [N %d H W]", x.Shape, d.inC))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	t := convTables.get(convWindow{window{h: h, w: w, kh: d.kh, kw: d.kw, stride: d.stride, pad: d.pad}, c})
	oc, hw := d.outC, t.oh*t.ow
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != oc || y.Shape[2] != t.oh || y.Shape[3] != t.ow {
		panic(fmt.Sprintf("tensor: ConvDirectInto32 y shape %v, want [%d %d %d %d]", y.Shape, n, oc, t.oh, t.ow))
	}
	per := c * h * w
	for i := 0; i < n; i++ {
		dst := y.Data[i*oc*hw : (i+1)*oc*hw]
		convDirectF32(dst, x.Data[i*per:(i+1)*per], d, t.taps, hw)
		if bias != nil {
			addBias(dst, bias.Data[:oc], hw)
		}
	}
	return y
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
