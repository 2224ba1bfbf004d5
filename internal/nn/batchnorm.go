package nn

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions, with learnable scale (gamma) and shift (beta) and
// running statistics for evaluation mode. The backward pass supports both
// modes: training mode differentiates through the batch statistics, while
// eval mode treats the running statistics as constants — the latter is what
// the attack package relies on when backpropagating through the server's
// frozen bodies.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // fraction of the old running statistic kept per step
	Gamma    *Param
	Beta     *Param
	RunMean  *tensor.Tensor
	RunVar   *tensor.Tensor

	// caches for Backward: the input and the per-channel mean and inverse
	// deviation it was normalized with (batch statistics in training mode,
	// running statistics in eval mode)
	trainMode    bool
	x            *tensor.Tensor
	mean, invStd []float64
}

// NewBatchNorm2D creates a batch-norm layer for c channels with gamma=1,
// beta=0, running mean 0 and running variance 1.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.9,
		Gamma:   NewParam(name+".gamma", tensor.Full(1, c)),
		Beta:    NewParam(name+".beta", tensor.New(c)),
		RunMean: tensor.New(c),
		RunVar:  tensor.Full(1, c),
	}
}

// Forward normalizes x through the batch-norm inference op. In training mode
// the op normalizes with the batch's own statistics, which also move the
// running statistics; in eval mode it uses the running statistics.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm2D %s expects [N,%d,H,W], got %v", b.Gamma.Name, b.C, x.Shape))
	}
	b.x, b.trainMode = x, train
	if len(b.invStd) != b.C {
		b.mean, b.invStd = make([]float64, b.C), make([]float64, b.C)
	}
	// The op normalizes with the cached statistics: the running ones, which
	// training mode then overwrites with the batch's.
	op := b.inferOp(b.invStd)
	copy(b.mean, op.mean)
	op.mean = b.mean
	if train {
		b.batchStats(x)
	}
	return op.infer(x, heapScratch())
}

// batchStats overwrites the cached mean and inverse deviation with the
// batch's per-channel statistics and folds them into the running ones.
func (b *BatchNorm2D) batchStats(x *tensor.Tensor) {
	n, c, hw := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	m := float64(n * hw)
	for ci := 0; ci < c; ci++ {
		sum := 0.0
		for ni := 0; ni < n; ni++ {
			for _, v := range x.Data[(ni*c+ci)*hw : (ni*c+ci+1)*hw] {
				sum += v
			}
		}
		mean := sum / m
		vsum := 0.0
		for ni := 0; ni < n; ni++ {
			for _, v := range x.Data[(ni*c+ci)*hw : (ni*c+ci+1)*hw] {
				d := v - mean
				vsum += float64(d * d)
			}
		}
		variance := vsum / m
		b.mean[ci], b.invStd[ci] = mean, 1/math.Sqrt(variance+b.Eps)
		b.RunMean.Data[ci] = float64(b.Momentum*b.RunMean.Data[ci]) + float64((1-b.Momentum)*mean)
		b.RunVar.Data[ci] = float64(b.Momentum*b.RunVar.Data[ci]) + float64((1-b.Momentum)*variance)
	}
}

// Backward returns dL/dx and accumulates gamma/beta gradients. The
// normalized input x̂ is recomputed from the cached input with the forward's
// own expression, (x-mean)*inv.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.x == nil {
		panic("nn: BatchNorm2D Backward before Forward")
	}
	n, c := grad.Shape[0], grad.Shape[1]
	hw := grad.Shape[2] * grad.Shape[3]
	m := float64(n * hw)
	out := tensor.New(grad.Shape...)
	for ci := 0; ci < c; ci++ {
		g, mean, inv := b.Gamma.Value.Data[ci], b.mean[ci], b.invStd[ci]
		sumDy, sumDyXhat := 0.0, 0.0
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			for j := 0; j < hw; j++ {
				dy := grad.Data[base+j]
				sumDy += dy
				sumDyXhat += float64(dy * ((b.x.Data[base+j] - mean) * inv))
			}
		}
		b.Beta.Grad.Data[ci] += sumDy
		b.Gamma.Grad.Data[ci] += sumDyXhat
		if !b.trainMode {
			// Running stats are constants: dx = dy * gamma * invStd.
			k := g * inv
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * hw
				for j := 0; j < hw; j++ {
					out.Data[base+j] = grad.Data[base+j] * k
				}
			}
			continue
		}
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			for j := 0; j < hw; j++ {
				xh := (b.x.Data[base+j] - mean) * inv
				out.Data[base+j] = g * inv / m * (float64(m*grad.Data[base+j]) - sumDy - float64(xh*sumDyXhat))
			}
		}
	}
	return out
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
