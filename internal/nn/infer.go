package nn

import (
	"errors"
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// This file is the forward arithmetic of every built-in layer, written once,
// generically over the element type, as an op over tensor.Dense[T] and
// Scratch[T]: every activation lands in a Scratch instead of a per-layer
// allocation, and nothing is cached for a backward pass. Three entry points
// run it:
//
//   - Forward(x, train), the training entry, runs it at float64 over the live
//     weights with a Scratch that is never Reset (heapScratch), so its
//     results are fresh heap tensors the caller owns, and caches beside it
//     only what the layer's Backward needs. Two steps are training-only
//     because training computes something else there: batch norm's batch
//     statistics (which it then normalizes with through the same op) and
//     dropout's mask. The convolution fans
//     its samples out across goroutines (tensor.ConvForward), each running
//     the op's serial kernel, ConvForwardInto.
//   - (*Network).ForwardInfer runs it at float64 over the live weights with
//     a caller-owned Scratch, with a Forward(x, false) fallback for custom
//     Layer implementations. No kernel spawns goroutines. This is the
//     reference oracle: bit-identical to Forward(x, false) and to every prior
//     release.
//   - Compile[T] turns a closed world of built-in layers into a Compiled[T]
//     once: at float64 it views the live weights in place but for the
//     convolutions', which it packs for the direct kernel (bit-identical to
//     the oracle), at float32 it narrows them — the precision the serving
//     path selects with -precision f32. f32 drift policy (DESIGN.md §2i):
//     weights and features are each rounded to float32 exactly once, kernels
//     accumulate in float32 (global average pooling, the one reduction long
//     enough to eat the budget, accumulates in float64 at every precision),
//     and the end-to-end divergence from the f64 oracle is held under 1e-5
//     relative by TestCompileDrift and the seed-network property test in
//     internal/audit. Compile also fuses the elementwise steps into their
//     neighbours, computing the same bits (compileRun): a batch norm and
//     its ReLU become the epilogue of the convolution before them, a
//     BasicBlock's residual sum and ReLU one pass (tensor.AddReLUInto), and
//     a pooled body's entry — batch norm, ReLU, max-pool — one step
//     (tensor.NormReLUPoolInto); on AVX2 each of these is vector code, so a
//     compiled f32 body runs no batch-norm, ReLU or pooling pass of its own
//     in Go. Where a vector form is missing the Go passes run as they are,
//     one after another.
//
// After one warm-up pass either inference entry point is allocation-free
// (asserted by TestForwardInferAllocs, TestCompileF64IsTheOracle,
// TestForwardInfer32Allocs and the comm serving benchmarks).
//
// Memory model: all tensors returned by an inference pass — including the
// final output — live in the Scratch and are invalidated by Scratch.Reset. A
// caller that retains the output (e.g. to encode it on the wire) must copy
// it out before resetting. A Scratch belongs to one goroutine. A Compiled
// network is read-only, so any number of goroutines may run one at once,
// each over its own Scratch; a live Network runs one pass at a time.

// Scratch is the reusable activation storage for inference-mode forward
// passes at element type T. The zero value is usable; the first pass sizes
// it.
type Scratch[T tensor.Float] struct {
	arena tensor.Arena[T]
}

// heapScratch returns a Scratch that is never Reset, so every tensor it
// hands out is a fresh heap allocation (see tensor.Arena.Alloc) owned by the
// caller: the memory model of the training Forward, which runs the same
// inference ops as ForwardInfer and Compile.
func heapScratch() *Scratch[float64] { return &Scratch[float64]{} }

// NewScratch returns an empty float64 scratch; the first ForwardInfer sizes
// it.
func NewScratch() *Scratch[float64] { return &Scratch[float64]{} }

// Reset reclaims the scratch for the next pass, invalidating every tensor
// the previous pass returned.
func (s *Scratch[T]) Reset() { s.arena.Reset() }

// Footprint reports the warmed scratch's backing memory in bytes.
func (s *Scratch[T]) Footprint() int { return s.arena.Footprint() }

// InferenceLayer is implemented by layers with a dedicated allocation-free
// inference path. Network.ForwardInfer uses it where available and falls
// back to Forward(x, false) otherwise, so custom Layer implementations keep
// working (they just allocate).
type InferenceLayer interface {
	Layer
	ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor
}

// ForwardInfer runs the stack in inference mode over the scratch. The result
// is bit-identical to Forward(x, false).
func (n *Network) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	for _, l := range n.Layers {
		if il, ok := l.(InferenceLayer); ok {
			x = il.ForwardInfer(x, s)
		} else {
			x = l.Forward(x, false)
		}
	}
	return x
}

// InferScratch returns a Scratch pre-sized for inputs of the given shape by
// running one throwaway warm-up pass — the "sizing done once per scratch"
// step of the serving memory model. Passes over inputs of this shape (or
// smaller) then allocate nothing; a larger input grows the scratch once.
func (n *Network) InferScratch(inputShape ...int) *Scratch[float64] {
	s := NewScratch()
	n.ForwardInfer(tensor.New(inputShape...), s)
	s.Reset()
	return s
}

// inferFunc is one compiled inference step at element type T.
type inferFunc[T tensor.Float] func(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T]

// Compiled is a Network compiled for inference at element type T: every step
// the same generic arithmetic (*Network).ForwardInfer runs, bit for bit,
// some steps fused into one (compileRun), with every per-pass constant
// (batch norm's reciprocal deviations) computed once. It
// is read-only after Compile, so one Compiled serves any number of
// goroutines at once, each over its own Scratch. At float64 it views the
// source network's weights and statistics in place — the source must not
// change while the Compiled is in use — except each convolution's weights,
// of which it holds a copy packed for the direct kernel (the im2col view
// where a weight is not finite); at float32 it holds narrowed copies of
// them all, the conv weights packed, with the batch norm each conv's
// epilogue applies packed beside them.
type Compiled[T tensor.Float] struct {
	Name  string
	steps []inferFunc[T]
}

// Compile returns a network's inference form at element type T. Compilation
// is closed-world: every built-in layer type compiles, while a custom Layer
// implementation (which ForwardInfer runs via its caching Forward fallback)
// returns an error — it is not safe to share between goroutines, and
// precision dispatch must not silently change which code serves a model.
// Three runs of layers compile to one step each (compileRun).
func Compile[T tensor.Float](n *Network) (*Compiled[T], error) {
	out := &Compiled[T]{Name: n.Name, steps: make([]inferFunc[T], 0, len(n.Layers))}
	for i := 0; i < len(n.Layers); {
		step, k, err := compileRun[T](n.Layers[i:])
		if err != nil {
			return nil, fmt.Errorf("nn: compiling %s layer %d: %w", n.Name, i, err)
		}
		out.steps = append(out.steps, step)
		i += k
	}
	return out, nil
}

// compileRun compiles the layers at the head of ls that become one step,
// and returns the step and how many layers it took. Each fusion computes
// the layers' own bits; the live ForwardInfer, the oracle, keeps them
// apart.
//
//   - Conv2D, BatchNorm2D and an optional ReLU: the convolution with the
//     batch norm and ReLU as its epilogue (castConv).
//   - BatchNorm2D, ReLU, MaxPool2D, the entry of a pooled body: one pass
//     where tensor.NormReLUPoolInto has a vector form, else the batch norm
//     and then the pool below.
//   - ReLU, MaxPool2D: one pool step whose running maximum starts at +0
//     instead of −Inf. That is the same function bit for bit: the pool
//     takes a tap only when it is strictly greater than the running
//     maximum, so starting at +0 skips exactly the taps ReLU would have
//     turned into +0 (negatives, −0, +0 and NaN, none of which is > +0) and
//     keeps every positive tap's own bits, and a window the ReLU would have
//     left all +0 pools to the starting +0 (never −0, never NaN).
//
// Each saves its passes over the activation and their scratch buffers.
func compileRun[T tensor.Float](ls []Layer) (inferFunc[T], int, error) {
	next := func(i int) Layer {
		if i < len(ls) {
			return ls[i]
		}
		return nil
	}
	_, relu1 := next(1).(*ReLU)
	_, relu2 := next(2).(*ReLU)
	switch l := ls[0].(type) {
	case *Conv2D:
		if bn, ok := next(1).(*BatchNorm2D); ok {
			op, err := castConv[T](l.inferOp().then(bn.inferOp(make([]float64, bn.C)), relu2))
			if relu2 {
				return op.infer, 3, err
			}
			return op.infer, 2, err
		}
	case *BatchNorm2D:
		if pool, ok := next(2).(*MaxPool2D); ok && relu1 {
			return entryOp[T]{bn: compileBN[T](l), k: pool.K, stride: pool.Stride}.infer, 3, nil
		}
	case *ReLU:
		if pool, ok := next(1).(*MaxPool2D); ok {
			return poolStep[T](pool, 0), 2, nil
		}
	}
	step, err := compileLayer[T](ls[0])
	return step, 1, err
}

// poolStep is the compiled MaxPool2D with its running maximum starting at
// floor.
func poolStep[T tensor.Float](p *MaxPool2D, floor T) inferFunc[T] {
	k, stride := p.K, p.Stride
	return func(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
		return maxPoolInfer(x, k, stride, floor, s)
	}
}

// entryOp is batch norm, ReLU and a max-pool compiled to one step.
type entryOp[T tensor.Float] struct {
	bn        bnOp[T]
	k, stride int
}

// infer runs the step's vector pass where this host has it for x's
// geometry, else its definition: batch norm, then the pool with the ReLU
// folded in (floor +0).
func (e entryOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	e.bn.check(x)
	oh := tensor.ConvOutSize(x.Shape[2], e.k, e.stride, 0)
	ow := tensor.ConvOutSize(x.Shape[3], e.k, e.stride, 0)
	y := s.arena.NewTensor(x.Shape[0], x.Shape[1], oh, ow)
	if tensor.NormReLUPoolInto(y, x, e.bn.mean, e.bn.inv, e.bn.gamma, e.bn.beta, e.k, e.stride) {
		return y
	}
	return tensor.MaxPoolInto(y, e.bn.infer(x, s), e.k, e.stride, 0)
}

// CompileF32 is Compile[float32], the float32 serving backend.
func CompileF32(n *Network) (*Compiled[float32], error) { return Compile[float32](n) }

// compileLayer compiles one layer. The type switch is the closed-world mirror
// of the InferenceLayer conformance list at the bottom of this file.
func compileLayer[T tensor.Float](l Layer) (inferFunc[T], error) {
	switch v := l.(type) {
	case *Network:
		c, err := Compile[T](v)
		if err != nil {
			return nil, err
		}
		return c.ForwardInfer, nil
	case *Conv2D:
		op, err := castConv[T](v.inferOp())
		return op.infer, err
	case *Linear:
		return linearOp[T]{name: v.W.Name, in: v.In, out: v.Out,
			w: castTensor[T](v.W.Value), b: castTensor[T](v.B.Value)}.infer, nil
	case *BatchNorm2D:
		return compileBN[T](v).infer, nil
	case *ReLU:
		return reluInfer[T], nil
	case *LeakyReLU:
		alpha := T(v.Alpha)
		return func(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
			return leakyReLUInfer(x, alpha, s)
		}, nil
	case *Sigmoid:
		return sigmoidInfer[T], nil
	case *MaxPool2D:
		return poolStep[T](v, T(math.Inf(-1))), nil
	case *GlobalAvgPool:
		return globalAvgPoolInfer[T], nil
	case *Flatten:
		return flattenInfer[T], nil
	case *AdditiveNoise:
		noise := castTensor[T](v.Noise.Value).Data
		return func(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
			return addNoiseInfer(x, noise, s)
		}, nil
	case *Dropout:
		return identityInfer[T], nil
	case *BasicBlock:
		live := v.inferOp(heapScratch())
		conv1, err1 := castConv[T](live.conv1)
		conv2, err2 := castConv[T](live.conv2)
		op := blockOp[T]{conv1: conv1, conv2: conv2, short: live.short}
		var err3 error
		if op.short {
			op.shortConv, err3 = castConv[T](live.shortConv)
		}
		return op.infer, errors.Join(err1, err2, err3)
	default:
		return nil, fmt.Errorf("no compiled inference path for layer type %T", l)
	}
}

// ForwardInfer runs the compiled stack over the scratch. The result lives in
// the scratch and is invalidated by Scratch.Reset, like the live path.
func (c *Compiled[T]) ForwardInfer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	for _, step := range c.steps {
		x = step(x, s)
	}
	return x
}

// InferScratch returns a Scratch pre-sized for inputs of the given shape by
// one throwaway warm-up pass, mirroring Network.InferScratch.
func (c *Compiled[T]) InferScratch(inputShape ...int) *Scratch[T] {
	s := &Scratch[T]{}
	c.ForwardInfer(tensor.NewOf[T](inputShape...), s)
	s.Reset()
	return s
}

// castTensor returns t at element type T: t itself at float64 (the live
// values, viewed in place), a rounded copy otherwise.
func castTensor[T tensor.Float](t *tensor.Tensor) *tensor.Dense[T] {
	if same, ok := any(t).(*tensor.Dense[T]); ok {
		return same
	}
	return tensor.ConvertInto(tensor.NewOf[T](t.Shape...), t)
}

// castSlice is castTensor for a bare slice.
func castSlice[T tensor.Float](src []float64) []T {
	if same, ok := any(src).([]T); ok {
		return same
	}
	out := make([]T, len(src))
	for i, v := range src {
		out[i] = T(v)
	}
	return out
}

// --- convolution ---

// convOp is a convolution's inference-time state at element type T: the
// live float64 parameters viewed in place (Conv2D.inferOp), or what a
// Compiled[T] holds of them. A compiled op holds its weights packed for the
// direct kernel (direct, with w nil): a converted copy, at float64 too. An
// f64 conv with a weight that is not finite, and the live op, hold w in the
// [OutC, C·KH·KW] layout the im2col panel reads, at float64 a view of the
// live weights.
//
// norm, where its constants are set, is a batch norm that follows the
// convolution, and relu a ReLU after it (then), which infer applies as a Go
// pass over the output: the live op's and the im2col panel's. A compiled
// op whose direct kernel takes them as its epilogue holds neither.
type convOp[T tensor.Float] struct {
	name                           string
	inC, outC, kh, kw, stride, pad int
	w, b                           *tensor.Dense[T] // b is nil when bias is disabled
	direct                         *tensor.DirectConv[T]
	norm                           bnOp[T]
	relu                           bool
}

func (c *Conv2D) inferOp() convOp[float64] {
	op := convOp[float64]{name: c.W.Name, inC: c.InC, outC: c.OutC, kh: c.KH, kw: c.KW,
		stride: c.Stride, pad: c.Pad, w: c.W.Value}
	if c.B != nil {
		op.b = c.B.Value
	}
	return op
}

// then returns c followed by the batch norm bn and, if relu, a ReLU.
func (c convOp[T]) then(bn bnOp[T], relu bool) convOp[T] {
	c.norm, c.relu = bn, relu
	return c
}

// castConv returns c at element type T, its weights packed for the direct
// kernel, which leaves out the padding products w·0: with w finite they are
// ±0 and drop out without moving a bit. A weight that is not finite at T
// (±Inf, NaN, or above MaxFloat32 at float32) makes those products NaN. At
// float32 such a conv is refused with an error naming the layer: an f32 body
// holding one does not compile, and is served by no other path. At float64
// it keeps the im2col panel over a view of the live weights, so
// Compile[float64] never refuses a built-in layer and stays the oracle for
// every model. Everything but the packed weights is a view at float64. A
// batch norm and ReLU that follow c become the direct kernel's epilogue
// (tensor.DirectConv.SetEpilogue), packed beside the weights, unless c has
// a bias, which the epilogue does not take, or the batch norm is over
// another number of channels than c's outputs; else infer's Go pass
// applies them, and the batch norm's shape check panics as the layer's own
// step would.
func castConv[T tensor.Float](c convOp[float64]) (convOp[T], error) {
	op := convOp[T]{name: c.name, inC: c.inC, outC: c.outC, kh: c.kh, kw: c.kw,
		stride: c.stride, pad: c.pad, relu: c.relu}
	if c.b != nil {
		op.b = castTensor[T](c.b)
	}
	if c.norm.mean != nil {
		op.norm = castBN[T](c.norm)
	}
	d, err := tensor.PackConv[T](c.w, c.inC, c.kh, c.kw, c.stride, c.pad)
	if err == nil {
		op.direct = d
		if op.norm.mean != nil && op.b == nil && len(op.norm.mean) == op.outC {
			d.SetEpilogue(op.norm.mean, op.norm.inv, op.norm.gamma, op.norm.beta, op.relu)
			op.norm, op.relu = bnOp[T]{}, false
		}
		return op, nil
	}
	if _, f64 := any(op.w).(*tensor.Tensor); !f64 {
		return op, fmt.Errorf("Conv2D %s: %w", c.name, err)
	}
	op.w = castTensor[T](c.w)
	return op, nil
}

// outSize validates x against the convolution and returns the output's
// spatial extent.
func (c convOp[T]) outSize(x *tensor.Dense[T]) (oh, ow int) {
	if len(x.Shape) != 4 || x.Shape[1] != c.inC {
		panic(fmt.Sprintf("nn: Conv2D %s expects [N,%d,H,W], got %v", c.name, c.inC, x.Shape))
	}
	return tensor.ConvOutSize(x.Shape[2], c.kh, c.stride, c.pad), tensor.ConvOutSize(x.Shape[3], c.kw, c.stride, c.pad)
}

// infer computes the convolution serially per sample, retaining nothing:
// with the direct kernel over packed weights, else through im2col and the
// register-tiled matmul kernel; then the batch norm and ReLU of norm and
// relu, in place.
func (c convOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	oh, ow := c.outSize(x)
	y := s.arena.NewTensor(x.Shape[0], c.outC, oh, ow)
	if c.direct != nil {
		tensor.ConvDirectInto(y, x, c.direct, c.b)
	} else {
		cols := s.arena.NewTensor(c.inC*c.kh*c.kw, oh*ow)
		tensor.ConvForwardInto(y, x, c.w, c.b, cols, c.kh, c.kw, c.stride, c.pad)
	}
	if c.norm.mean != nil {
		c.norm.into(y, y)
		if c.relu {
			tensor.ReLU(y.Data, y.Data)
		}
	}
	return y
}

// ForwardInfer runs the convolution's inference path over the live weights.
func (c *Conv2D) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return c.inferOp().infer(x, s)
}

// --- fully connected ---

type linearOp[T tensor.Float] struct {
	name    string
	in, out int
	w, b    *tensor.Dense[T]
}

// inferOp views the live weights in place.
func (l *Linear) inferOp() linearOp[float64] {
	return linearOp[float64]{name: l.W.Name, in: l.In, out: l.Out, w: l.W.Value, b: l.B.Value}
}

// infer computes xW^T + b into the scratch.
func (l linearOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 2 || x.Shape[1] != l.in {
		panic(fmt.Sprintf("nn: Linear %s expects [N,%d], got %v", l.name, l.in, x.Shape))
	}
	y := s.arena.NewTensor(x.Shape[0], l.out)
	tensor.MatMulTransBInto(y, x, l.w)
	for i := 0; i < x.Shape[0]; i++ {
		row := y.Data[i*l.out : (i+1)*l.out]
		for j := range row {
			row[j] += l.b.Data[j]
		}
	}
	return y
}

// ForwardInfer computes xW^T + b over the live weights.
func (l *Linear) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return l.inferOp().infer(x, s)
}

// --- batch normalization ---

// bnOp is a batch-norm layer's inference-time state: per-channel running
// mean, reciprocal standard deviation, and affine parameters.
type bnOp[T tensor.Float] struct {
	name                   string
	mean, inv, gamma, beta []T
}

// inferOp views the live running statistics and affine parameters in place,
// filling the caller's inv with 1/sqrt(var+eps) per channel.
func (b *BatchNorm2D) inferOp(inv []float64) bnOp[float64] {
	for ci := range inv {
		inv[ci] = 1 / math.Sqrt(b.RunVar.Data[ci]+b.Eps)
	}
	return bnOp[float64]{name: b.Gamma.Name, mean: b.RunMean.Data, inv: inv,
		gamma: b.Gamma.Value.Data, beta: b.Beta.Value.Data}
}

// compileBN computes the reciprocal deviations once, in f64 — the expression
// ForwardInfer evaluates per pass, so the float64 form keeps its bits — and
// casts each per-channel constant to T.
func compileBN[T tensor.Float](b *BatchNorm2D) bnOp[T] {
	return castBN[T](b.inferOp(make([]float64, b.C)))
}

// castBN returns the float64 op b at element type T.
func castBN[T tensor.Float](b bnOp[float64]) bnOp[T] {
	return bnOp[T]{name: b.name, mean: castSlice[T](b.mean), inv: castSlice[T](b.inv),
		gamma: castSlice[T](b.gamma), beta: castSlice[T](b.beta)}
}

// check panics unless x is [N, C, H, W] over the op's C channels.
func (b bnOp[T]) check(x *tensor.Dense[T]) {
	if c := len(b.mean); len(x.Shape) != 4 || x.Shape[1] != c {
		panic(fmt.Sprintf("nn: BatchNorm2D %s expects [N,%d,H,W], got %v", b.name, c, x.Shape))
	}
}

// infer normalizes with the running statistics into the scratch
// (tensor.BatchNormInto: one multiply-add per element after the
// subtraction), caching nothing.
func (b bnOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	return b.into(s.arena.NewTensor(x.Shape...), x)
}

// into normalizes x into y (x's shape; y may be x).
func (b bnOp[T]) into(y, x *tensor.Dense[T]) *tensor.Dense[T] {
	b.check(x)
	return tensor.BatchNormInto(y, x, b.mean, b.inv, b.gamma, b.beta)
}

// ForwardInfer normalizes with the live running statistics; the per-channel
// reciprocal deviations are recomputed into the scratch on every pass.
func (b *BatchNorm2D) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return b.inferOp(s.arena.Alloc(b.C)).infer(x, s)
}

// --- activations ---

// reluInfer clamps negatives to zero (tensor.ReLU) without caching a mask.
func reluInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	out := s.arena.NewTensor(x.Shape...)
	tensor.ReLU(out.Data, x.Data)
	return out
}

// leakyReLUInfer applies the leaky rectifier without caching the input.
func leakyReLUInfer[T tensor.Float](x *tensor.Dense[T], alpha T, s *Scratch[T]) *tensor.Dense[T] {
	out := s.arena.NewTensor(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = alpha * v
		}
	}
	return out
}

// The sigmoid evaluates through the float64 math library at every precision
// and narrows the result: a float32 exp approximation
// would save little (activations are a sliver of conv/matmul time) and cost
// drift headroom.

// sigmoidInfer squashes to (0,1) without caching the output.
func sigmoidInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	out := s.arena.NewTensor(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = T(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// ForwardInfer clamps negatives to zero.
func (r *ReLU) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return reluInfer(x, s)
}

// ForwardInfer applies the leaky rectifier.
func (l *LeakyReLU) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return leakyReLUInfer(x, l.Alpha, s)
}

// ForwardInfer squashes to (0,1).
func (s *Sigmoid) ForwardInfer(x *tensor.Tensor, sc *Scratch[float64]) *tensor.Tensor {
	return sigmoidInfer(x, sc)
}

// --- pooling ---

// maxPoolInfer pools each window to the larger of its maximum and floor
// (tensor.MaxPoolInto) without caching argmax indices: floor −Inf is the
// MaxPool2D layer, floor 0 is a ReLU folded into it by Compile.
func maxPoolInfer[T tensor.Float](x *tensor.Dense[T], k, stride int, floor T, s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects NCHW, got %v", x.Shape))
	}
	oh := tensor.ConvOutSize(x.Shape[2], k, stride, 0)
	ow := tensor.ConvOutSize(x.Shape[3], k, stride, 0)
	return tensor.MaxPoolInto(s.arena.NewTensor(x.Shape[0], x.Shape[1], oh, ow), x, k, stride, floor)
}

// globalAvgPoolInfer averages the spatial dimensions without caching the
// input shape. The accumulator is float64 at every precision: a running
// float32 sum over h*w elements is the one reduction long enough to eat the
// f32 drift budget (at float64 the conversions are the identity).
func globalAvgPoolInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := float64(h * w)
	out := s.arena.NewTensor(n, c)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			sum := 0.0
			for j := 0; j < h*w; j++ {
				sum += float64(x.Data[base+j])
			}
			out.Data[ni*c+ci] = T(sum / hw)
		}
	}
	return out
}

// flattenInfer flattens via an arena-backed view — no data copy, no heap
// header.
func flattenInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	n := x.Shape[0]
	return s.arena.View(x, n, x.Size()/n)
}

// identityInfer is dropout at inference: it only acts in training mode.
func identityInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] { return x }

// ForwardInfer pools each window to its maximum.
func (p *MaxPool2D) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return maxPoolInfer(x, p.K, p.Stride, math.Inf(-1), s)
}

// ForwardInfer averages the spatial dimensions.
func (g *GlobalAvgPool) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return globalAvgPoolInfer(x, s)
}

// ForwardInfer flattens via an arena-backed view.
func (f *Flatten) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return flattenInfer(x, s)
}

// ForwardInfer is the identity: dropout only acts in training mode.
func (d *Dropout) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return identityInfer(x, s)
}

// --- additive noise ---

// addNoiseInfer adds the per-sample noise values to every sample.
func addNoiseInfer[T tensor.Float](x *tensor.Dense[T], noise []T, s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: AdditiveNoise expects NCHW, got %v", x.Shape))
	}
	per := len(noise)
	if x.Size()/x.Shape[0] != per {
		panic(fmt.Sprintf("nn: AdditiveNoise of %d values incompatible with input %v", per, x.Shape))
	}
	out := s.arena.NewTensor(x.Shape...)
	for n := 0; n < x.Shape[0]; n++ {
		base := n * per
		for j := 0; j < per; j++ {
			out.Data[base+j] = x.Data[base+j] + noise[j]
		}
	}
	return out
}

// ForwardInfer adds the noise tensor to every sample.
func (a *AdditiveNoise) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return addNoiseInfer(x, a.Noise.Value.Data, s)
}

// --- residual block ---

// blockOp is a BasicBlock's inference-time state, each batch norm carried
// by the convolution it follows (convOp.then): conv1 with BN1 and the
// first ReLU, conv2 with BN2, and, where short marks a projection
// shortcut (identity otherwise), shortConv with ShortBN.
type blockOp[T tensor.Float] struct {
	conv1, conv2, shortConv convOp[T]
	short                   bool
}

// inferOp views the block's live sublayers; the batch-norm reciprocal
// deviations land in s.
func (b *BasicBlock) inferOp(s *Scratch[float64]) blockOp[float64] {
	op := blockOp[float64]{
		conv1: b.Conv1.inferOp().then(b.BN1.inferOp(s.arena.Alloc(b.BN1.C)), true),
		conv2: b.Conv2.inferOp().then(b.BN2.inferOp(s.arena.Alloc(b.BN2.C)), false),
	}
	if b.ShortConv != nil {
		op.short = true
		op.shortConv = b.ShortConv.inferOp().then(b.ShortBN.inferOp(s.arena.Alloc(b.ShortBN.C)), false)
	}
	return op
}

// infer runs both branches over the scratch, then the residual sum and its
// ReLU in place on the main branch's buffer (this block owns it — nothing
// else aliases an activation the block just produced).
func (b blockOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	main := b.conv2.infer(b.conv1.infer(x, s), s)
	short := x
	if b.short {
		short = b.shortConv.infer(x, s)
	}
	if !main.SameShape(short) {
		panic(fmt.Sprintf("nn: BasicBlock branch shapes %v vs %v", main.Shape, short.Shape))
	}
	return tensor.AddReLUInto(main, main, short)
}

// ForwardInfer runs the residual block's inference path over the live
// weights.
func (b *BasicBlock) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return b.inferOp(s).infer(x, s)
}

// Interface conformance: every built-in layer provides the inference path,
// so a stack of them runs allocation-free end to end.
var (
	_ InferenceLayer = (*Network)(nil)
	_ InferenceLayer = (*Conv2D)(nil)
	_ InferenceLayer = (*Linear)(nil)
	_ InferenceLayer = (*BatchNorm2D)(nil)
	_ InferenceLayer = (*ReLU)(nil)
	_ InferenceLayer = (*LeakyReLU)(nil)
	_ InferenceLayer = (*Sigmoid)(nil)
	_ InferenceLayer = (*MaxPool2D)(nil)
	_ InferenceLayer = (*GlobalAvgPool)(nil)
	_ InferenceLayer = (*Flatten)(nil)
	_ InferenceLayer = (*AdditiveNoise)(nil)
	_ InferenceLayer = (*Dropout)(nil)
	_ InferenceLayer = (*BasicBlock)(nil)
)
