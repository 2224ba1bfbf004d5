package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k applied with the given stride and symmetric zero padding
// to an input of size in.
func ConvOutSize(in, k, stride, pad int) int {
	out := (in+2*pad-k)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv output size %d for in=%d k=%d stride=%d pad=%d", out, in, k, stride, pad))
	}
	return out
}

// SampleView returns sample n of a batched [N, ...] tensor as a tensor that
// shares t's backing array (writes are visible in both).
func (t *Dense[T]) SampleView(n int) *Dense[T] {
	if len(t.Shape) < 2 {
		panic("tensor: SampleView on rank < 2")
	}
	per := len(t.Data) / t.Shape[0]
	return &Dense[T]{Shape: append([]int(nil), t.Shape[1:]...), Data: t.Data[n*per : (n+1)*per]}
}

// ConvForward computes a batched 2-D convolution for training.
//
//	x: [N, C, H, W], weight: [OC, C*KH*KW], bias: [OC] (may be nil)
//	returns y: [N, OC, OH, OW] and the per-sample im2col matrices (cached for
//	the backward pass).
//
// Samples are processed in parallel; each one runs the serial serving kernel
// ConvForwardInto over its own slice of y and its own retained im2col
// matrix, so training and serving compute every sample with the same
// arithmetic.
func ConvForward(x, weight, bias *Tensor, kh, kw, stride, pad int) (*Tensor, []*Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oc := weight.Shape[0]
	if weight.Shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: ConvForward weight %v vs c*kh*kw=%d", weight.Shape, c*kh*kw))
	}
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	y := New(n, oc, oh, ow)
	cols := make([]*Tensor, n)
	per, perY := c*h*w, oc*oh*ow
	parallelFor(n, func(i int) {
		cols[i] = New(c*kh*kw, oh*ow)
		xi := &Tensor{Shape: []int{1, c, h, w}, Data: x.Data[i*per : (i+1)*per]}
		yi := &Tensor{Shape: []int{1, oc, oh, ow}, Data: y.Data[i*perY : (i+1)*perY]}
		ConvForwardInto(yi, xi, weight, bias, cols[i], kh, kw, stride, pad)
	})
	return y, cols
}

// ConvBackward computes gradients of a batched convolution given the cached
// im2col matrices from ConvForward.
//
//	gradY: [N, OC, OH, OW]
//	returns gradX: [N, C, H, W], gradW: [OC, C*KH*KW], gradB: [OC].
//
// Samples are processed in parallel, each with the serial *Into matmuls;
// the per-sample weight gradients are summed in sample order afterwards so
// the result does not depend on scheduling.
func ConvBackward(gradY, weight *Tensor, cols []*Tensor, c, h, w, kh, kw, stride, pad int) (gradX, gradW, gradB *Tensor) {
	n, oc := gradY.Shape[0], gradY.Shape[1]
	oh, ow := gradY.Shape[2], gradY.Shape[3]
	hw, ckk := oh*ow, c*kh*kw
	gradX = New(n, c, h, w)
	gradB = New(oc)
	gws := make([]*Tensor, n)
	t := windows.get(window{h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad})
	parallelFor(n, func(i int) {
		gy := &Tensor{Shape: []int{oc, hw}, Data: gradY.Data[i*oc*hw : (i+1)*oc*hw]}
		// gradW_i = gy × cols_iᵀ : [OC, C*KH*KW]
		gws[i] = MatMulTransBInto(New(oc, ckk), gy, cols[i])
		// grad cols = Wᵀ × gy : [C*KH*KW, OH*OW], scattered onto sample i
		gc := MatMulTransAInto(New(ckk, hw), weight, gy)
		col2imAdd(gradX.Data[i*c*h*w:(i+1)*c*h*w], gc.Data, c, h*w, t)
	})
	gradW = New(oc, ckk)
	for i := 0; i < n; i++ {
		gradW.AddInPlace(gws[i])
	}
	for i := 0; i < n; i++ {
		base := i * oc * hw
		for o := 0; o < oc; o++ {
			s := 0.0
			row := gradY.Data[base+o*hw : base+(o+1)*hw]
			for _, v := range row {
				s += v
			}
			gradB.Data[o] += s
		}
	}
	return gradX, gradW, gradB
}
