package attack

import (
	"ensembler/internal/nn"
	"ensembler/internal/optim"
	"ensembler/internal/tensor"
)

// RMLEConfig parameterizes the optimization-based inversion (regularized
// maximum-likelihood estimation, He et al. 2019): instead of learning a
// decoder, the attacker gradient-descends on candidate pixels until the
// shadow head maps them to the observed features, with a total-variation
// prior keeping the estimate image-like.
type RMLEConfig struct {
	Steps    int
	LR       float64
	TVWeight float64
}

// withDefaults fills zero fields.
func (c RMLEConfig) withDefaults() RMLEConfig {
	if c.Steps == 0 {
		c.Steps = 300
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.TVWeight == 0 {
		c.TVWeight = 1e-3
	}
	return c
}

// tvLossGrad returns the anisotropic total variation of a batch of images
// and its gradient: TV = Σ (x[i,j+1]-x[i,j])² + (x[i+1,j]-x[i,j])²,
// normalized by the pixel count.
func tvLossGrad(x *tensor.Tensor) (float64, *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	grad := tensor.New(x.Shape...)
	total := 0.0
	norm := 1 / float64(x.Size())
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					idx := base + y*w + xx
					if xx+1 < w {
						d := x.Data[idx+1] - x.Data[idx]
						total += float64(d * d * norm)
						grad.Data[idx] -= float64(2 * d * norm)
						grad.Data[idx+1] += float64(2 * d * norm)
					}
					if y+1 < h {
						d := x.Data[idx+w] - x.Data[idx]
						total += float64(d * d * norm)
						grad.Data[idx] -= float64(2 * d * norm)
						grad.Data[idx+w] += float64(2 * d * norm)
					}
				}
			}
		}
	}
	return total, grad
}

// RMLE inverts observed features by optimizing input pixels through the
// shadow head: min_x ||head(x) − observed||² + λ·TV(x), with pixels clamped
// to [0,1] after every step. Returns the reconstructed batch.
func RMLE(head *nn.Network, observed *tensor.Tensor, imgShape []int, cfg RMLEConfig) *tensor.Tensor {
	cfg = cfg.withDefaults()
	x := tensor.Full(0.5, imgShape...) // neutral gray start
	xp := nn.NewParam("rmle.x", x)
	opt := optim.NewAdam([]*nn.Param{xp}, cfg.LR)
	for step := 0; step < cfg.Steps; step++ {
		pred := head.Forward(x, false)
		_, gradPred := nn.MSELoss(pred, observed)
		gx := head.Backward(gradPred)
		head.ZeroGrad() // attacker never updates the shadow head here
		_, gtv := tvLossGrad(x)
		xp.Grad().AddInPlace(gx).AddScaledInPlace(gtv, cfg.TVWeight)
		opt.Step()
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			} else if v > 1 {
				x.Data[i] = 1
			}
		}
	}
	return x
}
