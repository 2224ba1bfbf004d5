// Package defense assembles the defended collaborative-inference pipelines
// the paper compares in Tables I and II behind one interface: the
// unprotected baseline (None), fixed additive Gaussian noise (Single, [30]),
// Shredder-style learned noise, the dropout defenses (DR-single, DR-N), and
// the Ensembler itself. Each pipeline exposes exactly what the experiments
// need: the features the server observes, the server-side bodies the
// attacker trains against, and end-to-end accuracy.
package defense

import (
	"fmt"
	"io"

	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/optim"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// Pipeline is a trained collaborative-inference deployment under some
// defense. It satisfies attack.Victim.
type Pipeline interface {
	Name() string
	// ClientFeatures returns the intermediate output the server observes.
	ClientFeatures(x *tensor.Tensor) *tensor.Tensor
	// Bodies returns the server-held networks the attacker can exploit.
	Bodies() []*nn.Network
	// Accuracy evaluates end-to-end classification accuracy.
	Accuracy(ds *data.Dataset) float64
}

// Single wraps a one-body pipeline (None, Single, Shredder, DR-single).
type Single struct {
	name  string
	Model *split.Model
}

// Name identifies the defense.
func (s *Single) Name() string { return s.name }

// ClientFeatures returns the transmitted intermediate output.
func (s *Single) ClientFeatures(x *tensor.Tensor) *tensor.Tensor {
	return s.Model.ClientFeatures(x, false)
}

// Bodies returns the single server body.
func (s *Single) Bodies() []*nn.Network { return []*nn.Network{s.Model.Body} }

// Accuracy evaluates the pipeline.
func (s *Single) Accuracy(ds *data.Dataset) float64 { return split.Evaluate(s.Model, ds) }

// TrainNone trains the unprotected baseline: no noise, no dropout.
func TrainNone(arch split.Arch, train *data.Dataset, opts split.TrainOptions, seed int64) *Single {
	m := split.NewModel("none", arch, 0, nn.NoiseFixed, 0, rng.New(seed))
	opts.Seed = seed
	split.Train(m, train, opts)
	return &Single{name: "None", Model: m}
}

// TrainSingle trains the fixed additive-noise baseline of Dwork et al. [30]
// as used in the paper: one network with a predefined N(0,σ) added to the
// client's intermediate output, trained with the noise in place.
func TrainSingle(arch split.Arch, sigma float64, train *data.Dataset, opts split.TrainOptions, seed int64) *Single {
	m := split.NewModel("single", arch, sigma, nn.NoiseFixed, 0, rng.New(seed))
	opts.Seed = seed
	split.Train(m, train, opts)
	return &Single{name: "Single", Model: m}
}

// TrainDRSingle trains the dropout defense on a single network (He et al.
// IoT-J 2021): dropout before the FC tail, no noise injection.
func TrainDRSingle(arch split.Arch, dropout float64, train *data.Dataset, opts split.TrainOptions, seed int64) *Single {
	m := split.NewModel("dr-single", arch, 0, nn.NoiseFixed, dropout, rng.New(seed))
	opts.Seed = seed
	split.Train(m, train, opts)
	return &Single{name: "DR-single", Model: m}
}

// TrainShredder trains the Shredder-like learned-noise baseline: the noise
// tensor is a trainable parameter optimized jointly with the network under
// CE − μ·‖noise‖², i.e. the noise is pushed to grow wherever growth does not
// hurt the classification loss (a simplified stand-in for Shredder's
// mutual-information objective; see DESIGN.md substitutions).
func TrainShredder(arch split.Arch, sigma, mu float64, train *data.Dataset, opts split.TrainOptions, seed int64, log io.Writer) *Single {
	r := rng.New(seed)
	m := split.NewModel("shredder", arch, sigma, nn.NoiseTrainable, 0, r)
	if opts.Epochs == 0 {
		opts.Epochs = 4
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = 32
	}
	if opts.LR == 0 {
		opts.LR = 0.05
	}
	if opts.Momentum == 0 {
		opts.Momentum = 0.9
	}
	br := rng.New(seed + 7)
	opt := optim.NewSGD(m.Params(), opts.LR, opts.Momentum, opts.WeightDecay)
	sched := optim.StepDecay(opts.LR, 0.5, max(1, opts.Epochs/2))
	noise := m.Noise.Noise
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		opt.SetLR(sched(epoch))
		for _, idxs := range train.Batches(opts.BatchSize, br) {
			x, labels := train.Batch(idxs)
			logits := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, labels)
			m.Backward(grad)
			// Noise-power bonus: ∂(−μ‖n‖²)/∂n = −2μn, added to the
			// accumulated gradient so SGD grows the noise where CE allows.
			noise.Grad().AddScaledInPlace(noise.Value, -2*mu)
			opt.Step()
		}
		if log != nil {
			fmt.Fprintf(log, "shredder: epoch %d/%d noise L2 %.4f\n", epoch+1, opts.Epochs, noise.Value.L2Norm())
		}
	}
	return &Single{name: "Shredder", Model: m}
}

// Ensemble wraps the paper's Ensembler as a Pipeline.
type Ensemble struct {
	name string
	E    *ensemble.Ensembler
}

// Name identifies the defense.
func (e *Ensemble) Name() string { return e.name }

// ClientFeatures returns the transmitted intermediate output.
func (e *Ensemble) ClientFeatures(x *tensor.Tensor) *tensor.Tensor {
	return e.E.ClientFeatures(x)
}

// Bodies returns all N server bodies.
func (e *Ensemble) Bodies() []*nn.Network { return e.E.Bodies() }

// Accuracy evaluates the full selective-ensemble pipeline.
func (e *Ensemble) Accuracy(ds *data.Dataset) float64 { return e.E.Accuracy(ds) }

// Ensembler returns the wrapped framework (for head-cosine diagnostics).
func (e *Ensemble) Ensembler() *ensemble.Ensembler { return e.E }

// TrainEnsembler trains the full three-stage Ensembler defense.
func TrainEnsembler(cfg ensemble.Config, train *data.Dataset, log io.Writer) *Ensemble {
	return &Ensemble{name: "Ensembler", E: ensemble.Train(cfg, train, log)}
}

// TrainDRN trains the DR-N ablation from Table II: an ensemble of N
// networks with dropout tails but *without* the Stage-1 noise injection and
// without the Eq. 3 regularizer — isolating how much of Ensembler's
// protection comes from the selective-ensemble training rather than from
// merely having N nets with dropout.
func TrainDRN(cfg ensemble.Config, dropout float64, train *data.Dataset, log io.Writer) *Ensemble {
	cfg.Stage1Noise = false
	cfg.Dropout = dropout
	cfg.Lambda = 0
	cfg.Sigma = 0 // no noise layer at all in the DR variant
	e := ensemble.Train(cfg, train, log)
	return &Ensemble{name: "DR-10", E: e}
}
