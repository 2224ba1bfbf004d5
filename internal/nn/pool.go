package nn

import (
	"math"

	"ensembler/internal/tensor"
)

// MaxPool2D applies max pooling with a square window. The paper's ResNet-18
// setup keeps the MaxPool layer for CIFAR-10 and removes it for CIFAR-100;
// the split-model builders honor that switch.
type MaxPool2D struct {
	K, Stride int
	x         *tensor.Tensor
}

// NewMaxPool2D creates a max-pooling layer with window k and the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward pools each window to its maximum, caching x for Backward.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := maxPoolInfer(x, p.K, p.Stride, math.Inf(-1), heapScratch())
	p.x = x
	return y
}

// Backward routes each output gradient to the input position that won the
// max, found again from the cached input with the forward's rule: the first
// strictly greater value in row-major window order.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(p.x.Shape...)
	tensor.MaxPoolGradAdd(out, p.x, grad, p.K, p.Stride)
	return out
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [N,C,H,W] to [N,C] by averaging each channel; it is
// the penultimate layer of the ResNet bodies, producing the feature vectors
// the server returns to the client.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over the spatial dimensions.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := globalAvgPoolInfer(x, heapScratch())
	g.inShape = append([]int(nil), x.Shape...)
	return y
}

// Backward spreads each channel gradient uniformly over its spatial extent.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	out := tensor.New(g.inShape...)
	inv := 1 / float64(h*w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			gv := grad.Data[ni*c+ci] * inv
			base := (ni*c + ci) * h * w
			for j := 0; j < h*w; j++ {
				out.Data[base+j] = gv
			}
		}
	}
	return out
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, D].
type Flatten struct {
	inShape []int
}

// NewFlatten creates a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions. The output deliberately ALIASES
// x (shared backing array): a reshape must not copy activations, and
// downstream layers only read their input. A consumer that mutated its input
// in place would corrupt x — none of the built-in layers do.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape...)
	return flattenInfer(x, heapScratch())
}

// Backward restores the cached input shape (aliasing grad, same contract as
// Forward).
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil; flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
