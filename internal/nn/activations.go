package nn

import "ensembler/internal/tensor"

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	y *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero, caching the output: y > 0 exactly where
// x > 0, so the output is the pass-through mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = reluInfer(x, heapScratch())
	return r.y
}

// Backward zeroes gradients where the forward input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i, y := range r.y.Data {
		if y <= 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is max(x, alpha*x); used in the attacker's decoder where dead
// units would stall inversion training.
type LeakyReLU struct {
	Alpha float64
	x     *tensor.Tensor
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier, caching x for Backward.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	return leakyReLUInfer(x, l.Alpha, heapScratch())
}

// Backward scales negative-side gradients by Alpha.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i, v := range l.x.Data {
		if v <= 0 {
			out.Data[i] *= l.Alpha
		}
	}
	return out
}

// Params returns nil; LeakyReLU has no parameters.
func (l *LeakyReLU) Params() []*Param { return nil }

// Sigmoid squashes to (0,1); the decoder's output layer uses it so
// reconstructions live in image range.
type Sigmoid struct {
	y *tensor.Tensor
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward computes 1/(1+e^-x), caching the output for Backward.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.y = sigmoidInfer(x, heapScratch())
	return s.y
}

// Backward multiplies by y(1-y).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i, y := range s.y.Data {
		out.Data[i] *= y * (1 - y)
	}
	return out
}

// Params returns nil; Sigmoid has no parameters.
func (s *Sigmoid) Params() []*Param { return nil }
