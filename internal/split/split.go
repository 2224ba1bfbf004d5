// Package split implements collaborative inference model splitting: the
// head/body/tail decomposition M = {Mc,h, Ms, Mc,t} of the paper's threat
// model, builders for the scaled ResNet architecture used throughout the
// reproduction, and the plain (single-body) training loop. The paper's
// strictest setting is reproduced structurally: h=1 (the client head is a
// single 3×3 convolution) and t=1 (the client tail is the final fully
// connected layer).
package split

import (
	"fmt"
	"io"

	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/optim"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// Arch describes the split network family. The body is a scaled-down ResNet:
// batch norm + ReLU over the head's output, an optional max-pool (the paper
// keeps it for CIFAR-10 and removes it for CIFAR-100), a chain of stride-2
// residual blocks, and global average pooling producing the feature vector
// the server returns.
type Arch struct {
	InC, H, W   int   // input image shape
	HeadC       int   // channels produced by the client's single conv layer
	BlockWidths []int // output channels of each stride-2 residual block
	Classes     int
	UseMaxPool  bool
}

// DefaultArch returns the scaled configuration used by the experiments for a
// given workload kind.
func DefaultArch(kind data.Kind) Arch {
	a := Arch{InC: 3, H: 16, W: 16, HeadC: 8, BlockWidths: []int{16, 32}, Classes: kind.Classes()}
	// Mirror the paper's §IV-A architecture switch: MaxPool present for
	// CIFAR-10, removed for CIFAR-100 (larger intermediate feature map);
	// CelebA keeps it.
	switch kind {
	case data.CIFAR10Like, data.CelebALike:
		a.UseMaxPool = true
	case data.CIFAR100Like:
		a.UseMaxPool = false
	}
	return a
}

// FeatureDim returns the length of the feature vector one body produces.
func (a Arch) FeatureDim() int { return a.BlockWidths[len(a.BlockWidths)-1] }

// HeadOutShape returns the [C,H,W] shape of the client's intermediate output
// (the tensor transmitted to the server).
func (a Arch) HeadOutShape() (c, h, w int) { return a.HeadC, a.H, a.W }

// NewHead builds the client head Mc,h: a single 3×3 convolution (h=1).
func (a Arch) NewHead(name string, r *rng.RNG) *nn.Network {
	return nn.NewNetwork(name, nn.NewConv2D(name+".conv", a.InC, a.HeadC, 3, 1, 1, true, r))
}

// NewBody builds one server body Ms: BN + ReLU (+ MaxPool) + residual blocks
// + global average pooling, mapping the head's output to a FeatureDim vector.
func (a Arch) NewBody(name string, r *rng.RNG) *nn.Network {
	net := nn.NewNetwork(name,
		nn.NewBatchNorm2D(name+".bn0", a.HeadC),
		nn.NewReLU(),
	)
	if a.UseMaxPool {
		net.Append(nn.NewMaxPool2D(2, 2))
	}
	in := a.HeadC
	for i, w := range a.BlockWidths {
		net.Append(nn.NewBasicBlock(fmt.Sprintf("%s.block%d", name, i), in, w, 2, r))
		in = w
	}
	net.Append(nn.NewGlobalAvgPool())
	return net
}

// NewTail builds the client tail Mc,t: the final fully connected layer
// (t=1), taking p concatenated feature vectors. dropout > 0 inserts a
// dropout layer before the FC, which is the DR defense variant.
func (a Arch) NewTail(name string, p int, dropout float64, r *rng.RNG) *nn.Network {
	net := nn.NewNetwork(name)
	if dropout > 0 {
		net.Append(nn.NewDropout(dropout, r.Split()))
	}
	net.Append(nn.NewLinear(name+".fc", p*a.FeatureDim(), a.Classes, r))
	return net
}

// Model is a single collaborative-inference pipeline
// Mc,t(Ms(Mc,h(x)+noise)); Noise may be nil for the unprotected baseline.
type Model struct {
	Arch  Arch
	Head  *nn.Network
	Noise *nn.AdditiveNoise
	Body  *nn.Network
	Tail  *nn.Network
}

// NewModel builds a fresh single-body pipeline. sigma == 0 builds the
// unprotected baseline (no noise layer); noiseMode selects fixed (the paper's
// predefined N(0,σ)) or trainable (Shredder-style) noise; dropout
// is forwarded to the tail.
func NewModel(name string, a Arch, sigma float64, noiseMode nn.NoiseMode, dropout float64, r *rng.RNG) *Model {
	m := &Model{
		Arch: a,
		Head: a.NewHead(name+".head", r),
		Body: a.NewBody(name+".body", r),
		Tail: a.NewTail(name+".tail", 1, dropout, r),
	}
	if sigma > 0 {
		c, h, w := a.HeadOutShape()
		m.Noise = nn.NewAdditiveNoise(name+".noise", noiseMode, c, h, w, sigma, r.Split())
	}
	return m
}

// ClientFeatures computes the intermediate output the client transmits:
// Mc,h(x) plus the (possibly nil) noise. This is exactly what the
// adversarial server observes.
func (m *Model) ClientFeatures(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := m.Head.Forward(x, train)
	if m.Noise != nil {
		f = m.Noise.Forward(f, train)
	}
	return f
}

// Forward runs the full pipeline to logits.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := m.ClientFeatures(x, train)
	feat := m.Body.Forward(f, train)
	return m.Tail.Forward(feat, train)
}

// Backward propagates dL/d(logits) through the whole pipeline and returns
// dL/d(input image).
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := m.Tail.Backward(grad)
	g = m.Body.Backward(g)
	if m.Noise != nil {
		g = m.Noise.Backward(g)
	}
	return m.Head.Backward(g)
}

// Params returns every trainable parameter of the pipeline (including
// trainable noise, when present).
func (m *Model) Params() []*nn.Param {
	ps := append(m.Head.Params(), m.Body.Params()...)
	if m.Noise != nil {
		ps = append(ps, m.Noise.Params()...)
	}
	return append(ps, m.Tail.Params()...)
}

// TrainOptions configures a supervised training run.
type TrainOptions struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	Seed        int64
	Log         io.Writer // optional progress log
}

// withDefaults fills zero fields with sensible training defaults.
func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LR == 0 {
		o.LR = 0.05
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	return o
}

// Train fits the model's parameters to the dataset with SGD and a step
// decay schedule, returning the final-epoch mean training loss.
func Train(m *Model, ds *data.Dataset, opts TrainOptions) float64 {
	opts = opts.withDefaults()
	r := rng.New(opts.Seed)
	opt := optim.NewSGD(m.Params(), opts.LR, opts.Momentum, opts.WeightDecay)
	sched := optim.StepDecay(opts.LR, 0.5, max(1, opts.Epochs/2))
	var last float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		opt.SetLR(sched(epoch))
		total, batches := 0.0, 0
		for _, idxs := range ds.Batches(opts.BatchSize, r) {
			x, labels := ds.Batch(idxs)
			logits := m.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
			m.Backward(grad)
			opt.Step()
			total += loss
			batches++
		}
		last = total / float64(batches)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "%s epoch %d/%d loss %.4f\n", m.Head.Name, epoch+1, opts.Epochs, last)
		}
	}
	return last
}

// Evaluate returns classification accuracy of the pipeline on ds (eval
// mode), processing in batches to bound memory.
func Evaluate(m *Model, ds *data.Dataset) float64 {
	return EvaluateFn(ds, func(x *tensor.Tensor) *tensor.Tensor { return m.Forward(x, false) })
}

// EvaluateFn measures accuracy of an arbitrary logits function over ds.
func EvaluateFn(ds *data.Dataset, logitsFn func(x *tensor.Tensor) *tensor.Tensor) float64 {
	const bs = 64
	correct, total := 0.0, 0
	for start := 0; start < ds.Len(); start += bs {
		end := start + bs
		if end > ds.Len() {
			end = ds.Len()
		}
		idxs := make([]int, end-start)
		for i := range idxs {
			idxs[i] = start + i
		}
		x, labels := ds.Batch(idxs)
		logits := logitsFn(x)
		correct += nn.Accuracy(logits, labels) * float64(len(idxs))
		total += len(idxs)
	}
	return correct / float64(total)
}
