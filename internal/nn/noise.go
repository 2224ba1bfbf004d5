package nn

import (
	"fmt"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// NoiseMode selects how an AdditiveNoise layer produces its perturbation.
type NoiseMode int

const (
	// NoiseFixed adds a noise tensor drawn once at construction time and
	// broadcast over the batch — the paper's predefined N(0,σ) added after
	// the client head (Stages 1 and 3).
	NoiseFixed NoiseMode = iota
	// NoiseTrainable exposes the noise tensor as a trainable parameter —
	// the Shredder-style learned noise baseline.
	NoiseTrainable
)

// AdditiveNoise perturbs intermediate feature maps of shape [C,H,W]
// (broadcast over the batch). The gradient passes through unchanged; in
// trainable mode the noise tensor also accumulates its own gradient.
type AdditiveNoise struct {
	Mode  NoiseMode
	Noise *Param // the [C,H,W] noise tensor (fixed or trainable)
	batch int
}

// NewAdditiveNoise creates a noise layer for feature maps of shape [c,h,w]
// with standard deviation sigma, drawing from r.
func NewAdditiveNoise(name string, mode NoiseMode, c, h, w int, sigma float64, r *rng.RNG) *AdditiveNoise {
	noise := tensor.New(c, h, w)
	r.FillNormal(noise.Data, 0, sigma)
	return &AdditiveNoise{Mode: mode, Noise: NewParam(name+".noise", noise)}
}

// Forward adds the noise tensor to every sample in the batch.
func (a *AdditiveNoise) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := a.ForwardInfer(x, heapScratch())
	a.batch = x.Shape[0]
	return y
}

// Backward passes the gradient through; in trainable mode it also sums the
// batch gradient into the noise parameter.
func (a *AdditiveNoise) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if a.Mode == NoiseTrainable {
		per, g := a.Noise.Value.Size(), a.Noise.Grad().Data
		for n := 0; n < a.batch; n++ {
			base := n * per
			for j := 0; j < per; j++ {
				g[j] += grad.Data[base+j]
			}
		}
	}
	return grad
}

// Params exposes the noise tensor only in trainable mode; fixed noise is a
// pipeline constant, not something the optimizer may touch.
func (a *AdditiveNoise) Params() []*Param {
	if a.Mode == NoiseTrainable {
		return []*Param{a.Noise}
	}
	return nil
}

// Dropout zeroes a fraction P of activations during training and rescales
// the survivors by 1/(1-P); it is the DR-single / DR-N defense of He et al.
// (IoT-J 2021) in the ablation table.
type Dropout struct {
	P    float64
	r    *rng.RNG
	mask []float64
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float64, r *rng.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, r: r}
}

// Forward applies a fresh mask in training mode and is the identity in eval
// mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float64, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	scale := 1 / (1 - d.P)
	out := x.Clone()
	for i := range out.Data {
		if d.r.Float64() < d.P {
			d.mask[i] = 0
			out.Data[i] = 0
		} else {
			d.mask[i] = scale
			out.Data[i] *= scale
		}
	}
	return out
}

// Backward applies the cached mask (identity if the last forward was eval).
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := grad.Clone()
	for i := range out.Data {
		out.Data[i] *= d.mask[i]
	}
	return out
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
