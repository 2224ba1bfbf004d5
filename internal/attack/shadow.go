// Package attack implements the adversarial server's model inversion attack
// (MIA) from the paper's threat model (§II-B, He et al. 2019): the server
// holds the body weights θs and in-distribution auxiliary data, cannot query
// the client, and tries to reconstruct the client's private input from the
// observed intermediate features.
//
// The attack has two halves. First, TrainShadow fits a shadow network
// {~Mc,h, Ms, ~Mc,t} around the frozen server bodies on auxiliary data so
// that ~Mc,h approximates the client's private head composed with its noise.
// Second, TrainDecoder fits ~Mc,h⁻¹ — a convolutional decoder mapping shadow
// features back to images — and applies it to the victim's transmitted
// features. An optimization-based variant (RMLE) inverts the shadow head
// directly by gradient descent on the input pixels.
package attack

import (
	"fmt"
	"io"
	"math"

	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/optim"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// Config parameterizes the attack training runs.
type Config struct {
	Arch          split.Arch
	ShadowEpochs  int
	DecoderEpochs int
	BatchSize     int
	ShadowLR      float64
	DecoderLR     float64
	Seed          int64
	Log           io.Writer

	// AlignWeight enables feature-statistics alignment: the semi-honest
	// server passively observes the client's transmitted features during
	// normal operation, so it can additionally train the shadow head to
	// match the observed per-channel mean/std. This substantially
	// strengthens the query-free attack (without it the shadow head finds a
	// task-equivalent but geometrically different representation and the
	// decoder inverts the wrong function). Zero disables alignment.
	AlignWeight float64
	// Observed holds the passively captured victim features used for
	// alignment; nil disables alignment.
	Observed *tensor.Tensor
	// StructuredShadow selects the structure-matched shadow head: one
	// convolution plus a trainable spatial bias map, mirroring the defended
	// pipelines' "conv head + fixed additive noise" form. False selects the
	// paper's three-convolution shadow.
	StructuredShadow bool
	// Restarts > 1 repeats the whole shadow+decoder fit with different
	// seeds and keeps the strongest reconstruction — the adversary's best
	// attempt, which is what defense tables must be scored against.
	Restarts int
}

// ChannelStats summarizes per-channel first and second moments of a feature
// tensor [N,C,H,W] — everything the alignment term needs from the attacker's
// passive observations.
type ChannelStats struct {
	Mean, Std []float64
}

// ComputeChannelStats measures per-channel mean and standard deviation over
// batch and space.
func ComputeChannelStats(f *tensor.Tensor) ChannelStats {
	n, c, h, w := f.Shape[0], f.Shape[1], f.Shape[2], f.Shape[3]
	m := float64(n * h * w)
	st := ChannelStats{Mean: make([]float64, c), Std: make([]float64, c)}
	for ci := 0; ci < c; ci++ {
		sum := 0.0
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * h * w
			for j := 0; j < h*w; j++ {
				sum += f.Data[base+j]
			}
		}
		mean := sum / m
		vsum := 0.0
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * h * w
			for j := 0; j < h*w; j++ {
				d := f.Data[base+j] - mean
				vsum += float64(d * d)
			}
		}
		st.Mean[ci] = mean
		st.Std[ci] = math.Sqrt(vsum/m + 1e-8)
	}
	return st
}

// alignLossGrad returns the moment-matching penalty between the shadow
// head's output h and the observed statistics, with its gradient w.r.t. h:
// L = Σ_c (μ_c−μ̂_c)² + (σ_c−σ̂_c)².
func alignLossGrad(h *tensor.Tensor, obs ChannelStats) (float64, *tensor.Tensor) {
	n, c, hh, ww := h.Shape[0], h.Shape[1], h.Shape[2], h.Shape[3]
	m := float64(n * hh * ww)
	grad := tensor.New(h.Shape...)
	cur := ComputeChannelStats(h)
	loss := 0.0
	for ci := 0; ci < c; ci++ {
		dm := cur.Mean[ci] - obs.Mean[ci]
		ds := cur.Std[ci] - obs.Std[ci]
		loss += float64(dm*dm) + float64(ds*ds)
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hh * ww
			for j := 0; j < hh*ww; j++ {
				centered := h.Data[base+j] - cur.Mean[ci]
				grad.Data[base+j] = 2*dm/m + 2*ds*centered/(m*cur.Std[ci])
			}
		}
	}
	return loss, grad
}

// MeanFeatureMap averages a feature tensor [N,C,H,W] over the batch,
// producing the [C,H,W] mean map — the spatial statistic a semi-honest
// server accumulates from observed traffic. For a "conv + fixed noise"
// client this map pins the noise component almost exactly.
func MeanFeatureMap(f *tensor.Tensor) *tensor.Tensor {
	n := f.Shape[0]
	out := tensor.New(f.Shape[1], f.Shape[2], f.Shape[3])
	per := out.Size()
	for ni := 0; ni < n; ni++ {
		base := ni * per
		for j := 0; j < per; j++ {
			out.Data[j] += f.Data[base+j]
		}
	}
	return out.ScaleInPlace(1 / float64(n))
}

// meanMapLossGrad penalizes the squared distance between the batch-mean of
// the shadow features and the observed mean map:
// L = (1/CHW)·Σ_j (mean_j − obs_j)², with gradient w.r.t. every element.
func meanMapLossGrad(h *tensor.Tensor, obsMap *tensor.Tensor) (float64, *tensor.Tensor) {
	n := h.Shape[0]
	per := obsMap.Size()
	grad := tensor.New(h.Shape...)
	cur := MeanFeatureMap(h)
	loss := 0.0
	inv := 1 / float64(per)
	for j := 0; j < per; j++ {
		d := cur.Data[j] - obsMap.Data[j]
		loss += float64(d * d * inv)
		g := 2 * d * inv / float64(n)
		for ni := 0; ni < n; ni++ {
			grad.Data[ni*per+j] = g
		}
	}
	return loss, grad
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ShadowEpochs == 0 {
		c.ShadowEpochs = 6
	}
	if c.DecoderEpochs == 0 {
		c.DecoderEpochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ShadowLR == 0 {
		c.ShadowLR = 0.003
	}
	if c.DecoderLR == 0 {
		c.DecoderLR = 0.002
	}
	return c
}

// Shadow is the adversary's surrogate network: a three-convolution shadow
// head (the paper's choice — one conv simulating the unknown Mc,h plus two
// simulating the added noise), the frozen server bodies it trains against,
// an optional learnable gate vector (the adaptive attack's imitation of the
// secret selector), and a shadow tail.
type Shadow struct {
	Arch   split.Arch
	Head   *nn.Network
	Bodies []*nn.Network
	Gates  *nn.Param // nil for non-adaptive attacks
	Tail   *nn.Network

	feats   []*tensor.Tensor // per-body features cached for Backward
	headOut *tensor.Tensor   // head output cached for the alignment term
}

// NewShadow builds an untrained shadow network against the given frozen
// bodies. adaptive adds the learnable selector-imitating gates; structured
// selects the conv+spatial-bias shadow head instead of the 3-conv one.
func NewShadow(arch split.Arch, bodies []*nn.Network, adaptive, structured bool, r *rng.RNG) *Shadow {
	if len(bodies) == 0 {
		panic("attack: shadow needs at least one server body")
	}
	c := arch.HeadC
	var head *nn.Network
	if structured {
		// Mirror the victim's functional form Conv + fixed noise: one conv
		// plus a trainable spatial bias (initialized to zero). The tight
		// hypothesis class makes the frozen body identify the head sharply.
		_, h, w := arch.HeadOutShape()
		bias := nn.NewAdditiveNoise("shadow.bias", nn.NoiseTrainable, c, h, w, 0, r.Split())
		head = nn.NewNetwork("shadow.head",
			nn.NewConv2D("shadow.conv1", arch.InC, c, 3, 1, 1, true, r),
			bias,
		)
	} else {
		head = nn.NewNetwork("shadow.head",
			nn.NewConv2D("shadow.conv1", arch.InC, c, 3, 1, 1, true, r),
			nn.NewReLU(),
			nn.NewConv2D("shadow.conv2", c, c, 3, 1, 1, true, r),
			nn.NewReLU(),
			nn.NewConv2D("shadow.conv3", c, c, 3, 1, 1, true, r),
		)
	}
	s := &Shadow{
		Arch:   arch,
		Head:   head,
		Bodies: bodies,
		Tail:   arch.NewTail("shadow.tail", len(bodies), 0, r),
	}
	if adaptive {
		// Initialize gates at the uniform selector value 1/len(bodies).
		g := tensor.Full(1/float64(len(bodies)), len(bodies))
		s.Gates = nn.NewParam("shadow.gates", g)
	}
	return s
}

// gate returns the branch weight for body i.
func (s *Shadow) gate(i int) float64 {
	if s.Gates != nil {
		return s.Gates.Value.Data[i]
	}
	return 1 / float64(len(s.Bodies))
}

// Forward runs the shadow pipeline to logits, caching branch features and
// the head output.
func (s *Shadow) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := s.Head.Forward(x, train)
	s.headOut = h
	s.feats = make([]*tensor.Tensor, len(s.Bodies))
	parts := make([]*tensor.Tensor, len(s.Bodies))
	for i, b := range s.Bodies {
		f := b.Forward(h, false) // bodies stay frozen in eval mode
		s.feats[i] = f
		parts[i] = f.Scale(s.gate(i))
	}
	return s.Tail.Forward(nn.ConcatFeatures(parts), train)
}

// Backward propagates the classification gradient into the shadow head,
// tail, and (when adaptive) the gates; the bodies' own parameter gradients
// are discarded because the attacker cannot change θs. extraHeadGrad, when
// non-nil, is added at the head output (the alignment term's gradient).
func (s *Shadow) Backward(gradLogits, extraHeadGrad *tensor.Tensor) {
	gcat := s.Tail.Backward(gradLogits)
	widths := make([]int, len(s.Bodies))
	for i := range widths {
		widths[i] = s.Arch.FeatureDim()
	}
	parts := nn.SplitFeatureGrad(gcat, widths)
	var gradHead *tensor.Tensor
	for i, b := range s.Bodies {
		if s.Gates != nil {
			// d(gate_i · f_i)/d gate_i = <grad_i, f_i>.
			s.Gates.Grad.Data[i] += parts[i].Dot(s.feats[i])
		}
		gf := parts[i].Scale(s.gate(i))
		g := b.Backward(gf)
		b.ZeroGrad()
		if gradHead == nil {
			gradHead = g
		} else {
			gradHead.AddInPlace(g)
		}
	}
	if extraHeadGrad != nil {
		gradHead.AddInPlace(extraHeadGrad)
	}
	s.Head.Backward(gradHead)
}

// Params returns the attacker-trainable parameters.
func (s *Shadow) Params() []*nn.Param {
	ps := append(s.Head.Params(), s.Tail.Params()...)
	if s.Gates != nil {
		ps = append(ps, s.Gates)
	}
	return ps
}

// HeadFeatures returns ~Mc,h(x) — the surrogate of the victim's transmitted
// features, used to train the decoder.
func (s *Shadow) HeadFeatures(x *tensor.Tensor) *tensor.Tensor {
	return s.Head.Forward(x, false)
}

// TrainShadow fits the shadow network on the attacker's auxiliary dataset by
// classification, exactly as the legitimate pipeline was trained (the
// attacker knows the task and data distribution, §II-B). When cfg.Observed
// and cfg.AlignWeight are set, the loss gains the feature-statistics
// alignment term built from the server's passive observations.
func TrainShadow(cfg Config, bodies []*nn.Network, adaptive bool, aux *data.Dataset) *Shadow {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	s := NewShadow(cfg.Arch, bodies, adaptive, cfg.StructuredShadow, r.Split())
	// Adam rather than SGD: the attacker fits a small head against a frozen,
	// co-adapted body, a landscape where SGD stalls far from the victim's
	// loss level (TestShadowTrainingReducesLoss pins that this optimizer
	// makes progress).
	opt := optim.NewAdam(s.Params(), cfg.ShadowLR)
	sched := optim.StepDecay(cfg.ShadowLR, 0.5, max(1, cfg.ShadowEpochs/2))
	var obs ChannelStats
	var obsMap *tensor.Tensor
	align := cfg.AlignWeight > 0 && cfg.Observed != nil
	if align {
		obs = ComputeChannelStats(cfg.Observed)
		obsMap = MeanFeatureMap(cfg.Observed)
	}
	for epoch := 0; epoch < cfg.ShadowEpochs; epoch++ {
		opt.SetLR(sched(epoch))
		total, batches := 0.0, 0
		for _, idxs := range aux.Batches(cfg.BatchSize, r) {
			x, labels := aux.Batch(idxs)
			logits := s.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
			var extra *tensor.Tensor
			if align {
				aLoss, aGrad := alignLossGrad(s.headOut, obs)
				mLoss, mGrad := meanMapLossGrad(s.headOut, obsMap)
				loss += float64(cfg.AlignWeight * (aLoss + mLoss))
				extra = aGrad.AddInPlace(mGrad).ScaleInPlace(cfg.AlignWeight)
			}
			s.Backward(grad, extra)
			optim.ClipGradNorm(s.Params(), 5)
			opt.Step()
			total += loss
			batches++
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "shadow: epoch %d/%d loss %.4f\n", epoch+1, cfg.ShadowEpochs, total/float64(batches))
		}
	}
	return s
}
