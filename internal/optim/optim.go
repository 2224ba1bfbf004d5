// Package optim provides the gradient-descent optimizers used throughout the
// Ensembler reproduction: SGD with momentum and weight decay (for the split
// classifiers) and Adam (for the attacker's decoder and optimization-based
// inversion). Optimizers operate on nn.Param slices; parameter freezing is
// expressed by simply not handing a parameter to the optimizer, which is how
// Stage 3 keeps the selected server bodies fixed.
package optim

import (
	"math"

	"ensembler/internal/nn"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	params   []*nn.Param
	lr       float64
	momentum float64
	decay    float64
	velocity [][]float64
}

// NewSGD creates an SGD optimizer over params.
func NewSGD(params []*nn.Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, decay: weightDecay}
	s.velocity = make([][]float64, len(params))
	for i, p := range params {
		s.velocity[i] = make([]float64, p.Value.Size())
	}
	return s
}

// Step applies v ← m·v + g + wd·w ; w ← w − lr·v, then zeroes gradients.
func (s *SGD) Step() {
	for i, p := range s.params {
		v, grad := s.velocity[i], p.Grad().Data
		for j := range p.Value.Data {
			g := grad[j] + float64(s.decay*p.Value.Data[j])
			v[j] = float64(s.momentum*v[j]) + g
			p.Value.Data[j] -= float64(s.lr * v[j])
		}
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR reports the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	params []*nn.Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   [][]float64
}

// NewAdam creates an Adam optimizer with the standard (0.9, 0.999, 1e-8)
// moment settings.
func NewAdam(params []*nn.Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, p.Value.Size())
		a.v[i] = make([]float64, p.Value.Size())
	}
	return a
}

// Step applies one Adam update, then zeroes gradients.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v, grad := a.m[i], a.v[i], p.Grad().Data
		for j := range p.Value.Data {
			g := grad[j]
			m[j] = float64(a.beta1*m[j]) + float64((1-a.beta1)*g)
			v[j] = float64(a.beta2*v[j]) + float64((1-a.beta2)*g*g)
			mh := m[j] / c1
			vh := v[j] / c2
			p.Value.Data[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Stage-3 training clips to keep the
// cosine-similarity regularizer from destabilizing early epochs.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad().Data {
			total += float64(g * g)
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad().ScaleInPlace(scale)
		}
	}
	return norm
}

// StepDecay returns a learning-rate schedule that multiplies base by factor
// every period epochs (epoch counting from 0).
func StepDecay(base, factor float64, period int) func(epoch int) float64 {
	return func(epoch int) float64 {
		return base * math.Pow(factor, float64(epoch/period))
	}
}
