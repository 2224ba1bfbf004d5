package nn

import (
	"math"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors with square-independent
// kernel size, stride and symmetric zero padding. Weights are stored
// flattened as [OutC, InC*KH*KW] to feed the im2col matrix kernels directly.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W           *Param
	B           *Param // nil when bias is disabled (e.g. before batch norm)
	cols        []*tensor.Tensor
	inH, inW    int
}

// NewConv2D creates a convolution with He-normal initialized weights drawn
// from r. Bias is included iff withBias.
func NewConv2D(name string, inC, outC, k, stride, pad int, withBias bool, r *rng.RNG) *Conv2D {
	fanIn := inC * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	w := tensor.New(outC, fanIn)
	r.FillNormal(w.Data, 0, std)
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		W: NewParam(name+".w", w),
	}
	if withBias {
		c.B = NewParam(name+".b", tensor.New(outC))
	}
	return c
}

// Forward computes the convolution, caching im2col matrices for Backward.
// Samples fan out across goroutines, each running the serving kernel of the
// convolution's inference op.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	op := c.inferOp()
	op.outSize(x) // validates x with the op's message
	c.inH, c.inW = x.Shape[2], x.Shape[3]
	y, cols := tensor.ConvForward(x, op.w, op.b, op.kh, op.kw, op.stride, op.pad)
	c.cols = cols
	return y
}

// Backward consumes dL/dy and returns dL/dx, accumulating weight and bias
// gradients.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D Backward before Forward")
	}
	gx, gw, gb := tensor.ConvBackward(grad, c.W.Value, c.cols, c.InC, c.inH, c.inW, c.KH, c.KW, c.Stride, c.Pad)
	c.W.Grad().AddInPlace(gw)
	if c.B != nil {
		c.B.Grad().AddInPlace(gb)
	}
	return gx
}

// Params returns the convolution's trainable parameters.
func (c *Conv2D) Params() []*Param {
	if c.B != nil {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// Linear is a fully connected layer y = xW^T + b over [N, In] inputs,
// with W stored as [Out, In].
type Linear struct {
	In, Out int
	W, B    *Param
	x       *tensor.Tensor
}

// NewLinear creates a fully connected layer with He-normal weights.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	w := tensor.New(out, in)
	r.FillNormal(w.Data, 0, math.Sqrt(2.0/float64(in)))
	return &Linear{In: in, Out: out, W: NewParam(name+".w", w), B: NewParam(name+".b", tensor.New(out))}
}

// Forward computes xW^T + b through the linear inference op, caching x for
// Backward.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.inferOp().infer(x, heapScratch())
	l.x = x
	return y
}

// Backward returns dL/dx and accumulates dL/dW, dL/db.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: Linear Backward before Forward")
	}
	// dW = grad^T × x : [Out, In]
	l.W.Grad().AddInPlace(tensor.MatMulTransAInto(tensor.New(l.Out, l.In), grad, l.x))
	n, gb := grad.Shape[0], l.B.Grad().Data
	for i := 0; i < n; i++ {
		row := grad.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			gb[j] += row[j]
		}
	}
	// dx = grad × W : [N, In]
	return tensor.MatMulInto(tensor.New(n, l.In), grad, l.W.Value)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
