package ensemble

import (
	"fmt"
	"io"
	"math"
	"sync"

	"ensembler/internal/data"
	"ensembler/internal/metrics"
	"ensembler/internal/nn"
	"ensembler/internal/optim"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// Config parameterizes the Ensembler training pipeline.
type Config struct {
	Arch   split.Arch
	N      int     // server bodies in the ensemble
	P      int     // secretly activated bodies
	Sigma  float64 // std of the fixed Gaussian noise (paper: 0.1)
	Lambda float64 // cosine-similarity regularizer strength (Eq. 3)
	Seed   int64

	Stage1 split.TrainOptions // per-member training (Eq. 2)
	Stage3 split.TrainOptions // head/tail retraining (Eq. 3)

	// Stage1Noise disables the per-member fixed noise when false — the DR-N
	// ablation ("without the first stage training") from Table II.
	Stage1Noise bool
	// Dropout, when positive, inserts dropout before every FC tail (the DR
	// defense family).
	Dropout float64
	// RegAllHeads extends the Eq. 3 max over all N stage-1 heads instead of
	// only the P selected ones (an ablation knob; the paper regularizes
	// against the previous heads of the selected subset).
	RegAllHeads bool
}

// DefaultConfig mirrors the paper's operating point scaled to this
// substrate: N=10, P=4, σ=0.1, λ=0.5.
func DefaultConfig(kind data.Kind, seed int64) Config {
	return Config{
		Arch:        split.DefaultArch(kind),
		N:           10,
		P:           4,
		Sigma:       0.1,
		Lambda:      0.5,
		Seed:        seed,
		Stage1Noise: true,
	}
}

// Ensembler is a trained selective-ensemble pipeline: the N stage-1 member
// networks (whose bodies live on the server), the client's secret Selector,
// and the final Stage-3 head, noise and tail retained by the client.
type Ensembler struct {
	Cfg      Config
	Members  []*split.Model // stage-1 networks; Members[i].Body is server net i
	Selector *Selector
	Head     *nn.Network       // final client head Mc,h
	Noise    *nn.AdditiveNoise // Stage-3 fixed noise
	Tail     *nn.Network       // final client tail Mc,t (input P·FeatureDim)
}

// New builds the untrained skeleton of a pipeline: N freshly initialized
// members, a secretly drawn selector, and the final head/noise/tail. Train
// runs the three training stages over exactly this skeleton; Load overwrites
// its parameters with saved ones; tests and serving benches use it directly
// when trained weights are irrelevant (an untrained network costs exactly as
// much to run as a trained one).
func New(cfg Config) *Ensembler {
	if cfg.N <= 0 || cfg.P <= 0 || cfg.P > cfg.N {
		panic(fmt.Sprintf("ensemble: invalid N=%d P=%d", cfg.N, cfg.P))
	}
	root := rng.New(cfg.Seed)
	e := &Ensembler{Cfg: cfg}
	for i := 0; i < cfg.N; i++ {
		r := root.Split()
		sigma := cfg.Sigma
		if !cfg.Stage1Noise {
			sigma = 0
		}
		e.Members = append(e.Members,
			split.NewModel(fmt.Sprintf("member%d", i), cfg.Arch, sigma, nn.NoiseFixed, cfg.Dropout, r))
	}
	e.Selector = NewSelector(cfg.N, cfg.P, root.Split())
	r3 := root.Split()
	e.Head = cfg.Arch.NewHead("final.head", r3)
	c, h, w := cfg.Arch.HeadOutShape()
	if cfg.Sigma > 0 {
		e.Noise = nn.NewAdditiveNoise("final.noise", nn.NoiseFixed, c, h, w, cfg.Sigma, r3.Split())
	}
	e.Tail = cfg.Arch.NewTail("final.tail", cfg.P, cfg.Dropout, r3)
	return e
}

// Train runs the full three-stage pipeline of Fig. 2 on the private training
// set. log (optional) receives progress lines.
func Train(cfg Config, train *data.Dataset, log io.Writer) *Ensembler {
	e := New(cfg)

	// Stage 1 (Eq. 2): train N independent networks, each with its own fixed
	// Gaussian noise after the head so the resulting heads are mutually
	// quasi-orthogonal.
	for i, m := range e.Members {
		opts := cfg.Stage1
		opts.Seed = cfg.Seed*1000 + int64(i)
		loss := split.Train(m, train, opts)
		if log != nil {
			fmt.Fprintf(log, "stage1: member %d/%d trained, final loss %.4f\n", i+1, cfg.N, loss)
		}
	}

	// Stage 2: the client secretly selects P of the N networks (New already
	// drew the subset; it becomes meaningful here, after the members exist).
	if log != nil {
		fmt.Fprintf(log, "stage2: secret selection drawn (P=%d of N=%d)\n", cfg.P, cfg.N)
	}

	// Stage 3 (Eq. 3): freeze the selected bodies; retrain the fresh head and
	// tail with the new fixed noise, regularizing the head's output to be
	// quasi-orthogonal to every stage-1 head's.
	e.trainStage3(train, log)
	return e
}

// regHeads returns the stage-1 heads the Eq. 3 regularizer maxes over.
func (e *Ensembler) regHeads() []*nn.Network {
	var heads []*nn.Network
	for i, m := range e.Members {
		if e.Cfg.RegAllHeads || e.Selector.Contains(i) {
			heads = append(heads, m.Head)
		}
	}
	return heads
}

// trainStage3 optimizes the final head and tail against the frozen selected
// bodies with loss CE + λ·max_i CS (Eq. 3).
func (e *Ensembler) trainStage3(train *data.Dataset, log io.Writer) {
	opts := e.Cfg.Stage3
	if opts.Epochs == 0 {
		opts.Epochs = 6
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
	r := rng.New(e.Cfg.Seed*7919 + 13)
	params := append(e.Head.Params(), e.Tail.Params()...)
	opt := optim.NewSGD(params, opts.LR, opts.Momentum, opts.WeightDecay)
	sched := optim.StepDecay(opts.LR, 0.5, max(1, opts.Epochs/2))
	regHeads := e.regHeads()
	featDim := e.Cfg.Arch.FeatureDim()

	for epoch := 0; epoch < opts.Epochs; epoch++ {
		opt.SetLR(sched(epoch))
		total, batches := 0.0, 0
		for _, idxs := range train.Batches(opts.BatchSize, r) {
			x, labels := train.Batch(idxs)

			// Forward: head → noise → each selected frozen body → selector
			// concat → tail.
			headOut := e.Head.Forward(x, true)
			noised := headOut
			if e.Noise != nil {
				noised = e.Noise.Forward(headOut, true)
			}
			branch := make([]*tensor.Tensor, e.Selector.P)
			for j, i := range e.Selector.Indices {
				branch[j] = e.Members[i].Body.Forward(noised, false)
			}
			cat := e.Selector.ApplySelected(branch)
			logits := e.Tail.Forward(cat, true)
			loss, gradLogits := nn.SoftmaxCrossEntropy(logits, labels)

			// Backward through tail and the frozen bodies (parameter grads
			// of the bodies are discarded; only the input gradient matters).
			gcat := e.Tail.Backward(gradLogits)
			parts := e.Selector.SplitGrad(gcat, featDim)
			gradNoised := tensor.New(noised.Shape...)
			for j, i := range e.Selector.Indices {
				gradNoised.AddInPlace(e.Members[i].Body.Backward(parts[j]))
				e.Members[i].Body.ZeroGrad()
			}
			gradHeadOut := gradNoised
			if e.Noise != nil {
				gradHeadOut = e.Noise.Backward(gradNoised)
			}

			// Eq. 3 regularizer: penalize max_i cosine similarity between
			// the new head's output and stage-1 head i's output.
			regVal, regGrad := maxCosineRegularizer(headOut, x, regHeads)
			loss += e.Cfg.Lambda * regVal
			gradHeadOut.AddScaledInPlace(regGrad, e.Cfg.Lambda)

			e.Head.Backward(gradHeadOut)
			optim.ClipGradNorm(params, 5)
			opt.Step()
			total += loss
			batches++
		}
		if log != nil {
			fmt.Fprintf(log, "stage3: epoch %d/%d loss %.4f\n", epoch+1, opts.Epochs, total/float64(batches))
		}
	}
}

// maxCosineRegularizer computes R = mean_s max_i cos²(a_s, b^i_s) where a is
// the new head's output on the batch and b^i the i-th stage-1 head's output,
// together with dR/da. The max is taken per sample (subgradient: the
// gradient flows through the argmax head only).
//
// The paper's Eq. 3 penalizes max CS directly; squaring makes the optimum
// *orthogonality* (CS = 0) rather than anti-correlation (CS = −1). An
// anti-correlated head is as invertible as the original — reproduction runs
// with the raw-CS penalty drove the cosine to −0.5 and lost the protection,
// so the squared form implements the paper's stated intent ("as
// quasi-orthogonal ... as possible").
func maxCosineRegularizer(headOut, x *tensor.Tensor, heads []*nn.Network) (float64, *tensor.Tensor) {
	n := headOut.Shape[0]
	d := headOut.Size() / n
	grad := tensor.New(headOut.Shape...)
	if len(heads) == 0 {
		return 0, grad
	}
	outs := make([]*tensor.Tensor, len(heads))
	for i, h := range heads {
		outs[i] = h.Forward(x, false)
	}
	total := 0.0
	for s := 0; s < n; s++ {
		a := headOut.Data[s*d : (s+1)*d]
		best, bestI := -1.0, 0
		for i := range outs {
			b := outs[i].Data[s*d : (s+1)*d]
			if c := cosine(a, b); c*c > best {
				best, bestI = c*c, i
			}
		}
		total += best
		// d cos²(a,b)/da = 2·cos · (b/(|a||b|) − cos·a/|a|²).
		b := outs[bestI].Data[s*d : (s+1)*d]
		cos := cosine(a, b)
		na, nb := norm(a), norm(b)
		if na == 0 || nb == 0 {
			continue
		}
		g := grad.Data[s*d : (s+1)*d]
		inv := 1 / (na * nb)
		for j := range g {
			g[j] = 2 * cos * (b[j]*inv - cos*a[j]/(na*na)) / float64(n)
		}
	}
	return total / float64(n), grad
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func norm(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// ClientFeatures returns the intermediate output the server observes for x:
// the final head's output plus the Stage-3 fixed noise.
func (e *Ensembler) ClientFeatures(x *tensor.Tensor) *tensor.Tensor {
	f := e.Head.Forward(x, false)
	if e.Noise != nil {
		f = e.Noise.Forward(f, false)
	}
	return f
}

// Bodies returns all N live server networks — the weights the adversarial
// server holds and can attack with. The N networks are distinct, so running
// them concurrently with each other is safe, but each individual body caches
// forward state and must run Forward on one goroutine at a time; callers that
// need several independent copies use CloneBodies. A server shares them
// without copies, through their read-only compiled form (nn.Compile).
func (e *Ensembler) Bodies() []*nn.Network {
	out := make([]*nn.Network, len(e.Members))
	for i, m := range e.Members {
		out[i] = m.Body
	}
	return out
}

// ServerCompute runs every body on the transmitted features, as the real
// server would (it cannot know which are selected). The N passes fan out
// across goroutines — the paper's §III-D observation that the O(N) server
// cost parallelizes because the bodies are independent — and join before
// returning, in body order.
func (e *Ensembler) ServerCompute(features *tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(e.Members))
	var wg sync.WaitGroup
	for i, m := range e.Members {
		wg.Add(1)
		go func(i int, b *nn.Network) {
			defer wg.Done()
			out[i] = b.Forward(features, false)
		}(i, m.Body)
	}
	wg.Wait()
	return out
}

// BodyScratch is the reusable per-body inference storage for
// ServerComputeWith: one nn.Scratch per ensemble body plus the output list,
// owned by one goroutine. The audit engine's replay loop and other
// steady-state callers hold one and reuse it across calls, so repeated
// server-side passes stop allocating per layer.
type BodyScratch struct {
	per []*nn.Scratch[float64]
	out []*tensor.Tensor
}

// NewBodyScratch builds an empty scratch set for the ensemble's N bodies;
// the first ServerComputeWith pass sizes it.
func (e *Ensembler) NewBodyScratch() *BodyScratch {
	bs := &BodyScratch{per: make([]*nn.Scratch[float64], len(e.Members)), out: make([]*tensor.Tensor, len(e.Members))}
	for i := range bs.per {
		bs.per[i] = nn.NewScratch()
	}
	return bs
}

// ServerComputeWith is ServerCompute over caller-owned scratch storage: the
// N body passes run serially in inference mode (no goroutine fan-out — the
// caller decides where parallelism lives, exactly as the comm serving
// workers do), and every returned tensor lives in bs until the next call.
// Callers that retain a result across calls must copy it.
func (e *Ensembler) ServerComputeWith(features *tensor.Tensor, bs *BodyScratch) []*tensor.Tensor {
	for i, m := range e.Members {
		bs.per[i].Reset()
		bs.out[i] = m.Body.ForwardInfer(features, bs.per[i])
	}
	return bs.out
}

// Predict runs the full collaborative pipeline (client → all N server bodies
// → secret selector → client tail) and returns logits.
func (e *Ensembler) Predict(x *tensor.Tensor) *tensor.Tensor {
	feats := e.ServerCompute(e.ClientFeatures(x))
	return e.Tail.Forward(e.Selector.Apply(feats), false)
}

// Accuracy evaluates end-to-end classification accuracy on ds.
func (e *Ensembler) Accuracy(ds *data.Dataset) float64 {
	return split.EvaluateFn(ds, e.Predict)
}

// HeadCosines reports the mean per-sample cosine similarity between the
// final head's output and each stage-1 head's output on batch x — the
// quantity the Stage-3 regularizer pushed down, and the measurable sense in
// which the deployed head differs from every network the attacker can
// reconstruct.
func (e *Ensembler) HeadCosines(x *tensor.Tensor) []float64 {
	a := e.Head.Forward(x, false)
	n := x.Shape[0]
	out := make([]float64, len(e.Members))
	for i, m := range e.Members {
		b := m.Head.Forward(x, false)
		s := 0.0
		for j := 0; j < n; j++ {
			s += metrics.CosineSimilarity(a.SampleView(j), b.SampleView(j))
		}
		out[i] = s / float64(n)
	}
	return out
}
