package nn

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// This file is the inference-mode forward path. Every layer's inference
// arithmetic is written once, generically over the element type, as an
// infer function or method over tensor.Dense[T] and Scratch[T]: every
// activation lands in the caller-owned Scratch instead of a per-layer
// allocation, nothing is cached for a backward pass, and no kernel spawns
// goroutines. Two thin entry points call it:
//
//   - (*Network).ForwardInfer runs it at float64 over the LIVE weights,
//     computing exactly what Forward(x, false) computes, with a
//     Forward(x, false) fallback for custom Layer implementations. This is
//     the reference oracle: bit-identical to every prior release.
//   - CompileF32 narrows a closed world of built-in layers to float32 once
//     and returns a Net32 that runs the same arithmetic at float32 — the
//     precision the serving path selects with -precision f32. Drift policy
//     (DESIGN.md §2i): weights and features are each rounded to float32
//     exactly once, kernels accumulate in float32 (global average pooling,
//     the one reduction long enough to eat the budget, accumulates in
//     float64 at every precision), and the end-to-end divergence from the
//     f64 oracle is held under 1e-5 relative by TestCompileF32Drift and the
//     seed-network property test in internal/audit.
//
// After one warm-up pass either entry point is allocation-free (asserted by
// TestForwardInferAllocs, TestForwardInfer32Allocs and the comm serving
// benchmarks).
//
// Memory model: all tensors returned by an inference pass — including the
// final output — live in the Scratch and are invalidated by Scratch.Reset. A
// caller that retains the output (e.g. to encode it on the wire) must copy
// it out before resetting. A Scratch belongs to one goroutine; concurrent
// passes need one Scratch (and one network replica) each, mirroring the
// existing one-goroutine-per-network rule.

// Scratch is the reusable activation storage for inference-mode forward
// passes at element type T. The zero value is usable; the first pass sizes
// it.
type Scratch[T tensor.Float] struct {
	arena tensor.Arena[T]
}

// NewScratch returns an empty float64 scratch; the first ForwardInfer sizes
// it.
func NewScratch() *Scratch[float64] { return &Scratch[float64]{} }

// NewScratch32 returns an empty float32 scratch for a Net32.
func NewScratch32() *Scratch[float32] { return &Scratch[float32]{} }

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
// running one throwaway warm-up pass — the "sizing done once per replica"
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

// Net32 is a Network compiled for float32 inference: weights pre-narrowed,
// every step the same generic arithmetic the f64 path runs. Like a Network
// replica it is safe for one goroutine at a time. It holds no references to
// the source network's parameter tensors except through AdditiveNoise
// resample mode (which mutates the source layer exactly as the f64 path
// does).
type Net32 struct {
	Name  string
	steps []inferFunc[float32]
}

// CompileF32 narrows a network's weights to float32 and returns its f32
// inference form. Every built-in layer type compiles; a custom Layer
// implementation (which the f64 path would run via its Forward fallback)
// has no f32 counterpart and returns an error — precision dispatch must not
// silently change which code serves a model.
func CompileF32(n *Network) (*Net32, error) {
	out := &Net32{Name: n.Name, steps: make([]inferFunc[float32], 0, len(n.Layers))}
	for i, l := range n.Layers {
		step, err := compileLayer32(l)
		if err != nil {
			return nil, fmt.Errorf("nn: CompileF32 %s layer %d: %w", n.Name, i, err)
		}
		out.steps = append(out.steps, step)
	}
	return out, nil
}

// compileLayer32 narrows one layer. The type switch is the closed-world
// mirror of the InferenceLayer conformance list at the bottom of this file.
func compileLayer32(l Layer) (inferFunc[float32], error) {
	switch v := l.(type) {
	case *Network:
		n32, err := CompileF32(v)
		if err != nil {
			return nil, err
		}
		return n32.ForwardInfer, nil
	case *Conv2D:
		return narrowConv(v.inferOp()).infer, nil
	case *Linear:
		return linearOp[float32]{name: v.W.Name, in: v.In, out: v.Out,
			w: tensor.Narrow32(v.W.Value), b: tensor.Narrow32(v.B.Value)}.infer, nil
	case *BatchNorm2D:
		return narrowBN(v.inferOp(make([]float64, v.C))).infer, nil
	case *ReLU:
		return reluInfer[float32], nil
	case *LeakyReLU:
		alpha := float32(v.Alpha)
		return func(x *tensor.Tensor32, s *Scratch[float32]) *tensor.Tensor32 {
			return leakyReLUInfer(x, alpha, s)
		}, nil
	case *Sigmoid:
		return sigmoidInfer[float32], nil
	case *Tanh:
		return tanhInfer[float32], nil
	case *MaxPool2D:
		k, stride := v.K, v.Stride
		return func(x *tensor.Tensor32, s *Scratch[float32]) *tensor.Tensor32 {
			return maxPoolInfer(x, k, stride, s)
		}, nil
	case *GlobalAvgPool:
		return globalAvgPoolInfer[float32], nil
	case *Upsample2D:
		factor := v.Factor
		return func(x *tensor.Tensor32, s *Scratch[float32]) *tensor.Tensor32 {
			return upsampleInfer(x, factor, s)
		}, nil
	case *Flatten:
		return flattenInfer[float32], nil
	case *Reshape2D4D:
		c, h, w := v.C, v.H, v.W
		return func(x *tensor.Tensor32, s *Scratch[float32]) *tensor.Tensor32 {
			return s.arena.View(x, x.Shape[0], c, h, w)
		}, nil
	case *AdditiveNoise:
		// A pre-narrowed copy of the noise tensor. Resample mode redraws
		// through the source layer's RNG (f64, identical stream to the oracle
		// path) and re-narrows into the retained buffer — no allocation.
		noise := tensor.Narrow32(v.Noise.Value)
		return func(x *tensor.Tensor32, s *Scratch[float32]) *tensor.Tensor32 {
			if v.resample() {
				tensor.ConvertInto(noise, v.Noise.Value)
			}
			return addNoiseInfer(x, noise.Data, s)
		}, nil
	case *Dropout:
		return identityInfer[float32], nil
	case *BasicBlock:
		// A throwaway scratch hosts the f64 reciprocal deviations until they
		// are narrowed.
		return narrowBlock(v.inferOp(NewScratch())).infer, nil
	default:
		return nil, fmt.Errorf("no float32 inference path for layer type %T", l)
	}
}

// ForwardInfer runs the compiled stack over the scratch. The result lives in
// the scratch and is invalidated by Scratch.Reset, like the f64 path.
func (n *Net32) ForwardInfer(x *tensor.Tensor32, s *Scratch[float32]) *tensor.Tensor32 {
	for _, step := range n.steps {
		x = step(x, s)
	}
	return x
}

// InferScratch returns a float32 Scratch pre-sized for inputs of the given
// shape by one throwaway warm-up pass, mirroring Network.InferScratch.
func (n *Net32) InferScratch(inputShape ...int) *Scratch[float32] {
	s := NewScratch32()
	n.ForwardInfer(tensor.New32(inputShape...), s)
	s.Reset()
	return s
}

// --- convolution ---

// convOp is a convolution's inference-time state at element type T: the
// live float64 parameters viewed in place (Conv2D.inferOp), or their
// float32 narrowing held by a Net32.
type convOp[T tensor.Float] struct {
	name                           string
	inC, outC, kh, kw, stride, pad int
	w, b                           *tensor.Dense[T] // b is nil when bias is disabled
}

func (c *Conv2D) inferOp() convOp[float64] {
	op := convOp[float64]{name: c.W.Name, inC: c.InC, outC: c.OutC, kh: c.KH, kw: c.KW,
		stride: c.Stride, pad: c.Pad, w: c.W.Value}
	if c.B != nil {
		op.b = c.B.Value
	}
	return op
}

func narrowConv(c convOp[float64]) convOp[float32] {
	op := convOp[float32]{name: c.name, inC: c.inC, outC: c.outC, kh: c.kh, kw: c.kw,
		stride: c.stride, pad: c.pad, w: tensor.Narrow32(c.w)}
	if c.b != nil {
		op.b = tensor.Narrow32(c.b)
	}
	return op
}

// infer computes the convolution serially per sample with the blocked
// matmul kernel, retaining no im2col matrices.
func (c convOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 4 || x.Shape[1] != c.inC {
		panic(fmt.Sprintf("nn: Conv2D %s expects [N,%d,H,W], got %v", c.name, c.inC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	ow := tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	y := s.arena.NewTensor(n, c.outC, oh, ow)
	cols := s.arena.NewTensor(c.inC*c.kh*c.kw, oh*ow)
	return tensor.ConvForwardInto(y, x, c.w, c.b, cols, c.kh, c.kw, c.stride, c.pad)
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
	return linearOp[float64]{name: l.W.Name, in: l.In, out: l.Out, w: l.W.Value, b: l.B.Value}.infer(x, s)
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

// narrowBN narrows each per-channel constant once. The reciprocal square
// root was computed in f64 — the same rounding structure as the f64 path.
func narrowBN(b bnOp[float64]) bnOp[float32] {
	return bnOp[float32]{name: b.name, mean: narrowSlice(b.mean), inv: narrowSlice(b.inv),
		gamma: narrowSlice(b.gamma), beta: narrowSlice(b.beta)}
}

// narrowSlice rounds a float64 slice to a fresh float32 slice.
func narrowSlice(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// infer normalizes with the running statistics, folding the affine
// transform into one multiply-add per element and caching nothing.
func (b bnOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	c := len(b.mean)
	if len(x.Shape) != 4 || x.Shape[1] != c {
		panic(fmt.Sprintf("nn: BatchNorm2D %s expects [N,%d,H,W], got %v", b.name, c, x.Shape))
	}
	n, hw := x.Shape[0], x.Shape[2]*x.Shape[3]
	out := s.arena.NewTensor(x.Shape...)
	for ci := 0; ci < c; ci++ {
		inv, mean := b.inv[ci], b.mean[ci]
		g, bt := b.gamma[ci], b.beta[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			src := x.Data[base : base+hw]
			dst := out.Data[base : base+hw]
			for j, v := range src {
				// Matches Forward's eval mode bit for bit at float64: the
				// same (x-mean)*inv rounding, then the affine.
				dst[j] = g*((v-mean)*inv) + bt
			}
		}
	}
	return out
}

// ForwardInfer normalizes with the live running statistics; the per-channel
// reciprocal deviations are recomputed into the scratch on every pass.
func (b *BatchNorm2D) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return b.inferOp(s.arena.Alloc(b.C)).infer(x, s)
}

// --- activations ---

// reluInfer clamps negatives to zero without caching a mask.
func reluInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	out := s.arena.NewTensor(x.Shape...)
	reluSlice(out.Data, x.Data)
	return out
}

// reluSlice writes max(0, src) into dst; dst may alias src.
func reluSlice[T tensor.Float](dst, src []T) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
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

// The transcendental activations evaluate through the float64 math library
// at every precision and narrow the result: a float32 exp/tanh approximation
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

// tanhInfer computes tanh without caching the output.
func tanhInfer[T tensor.Float](x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	out := s.arena.NewTensor(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = T(math.Tanh(float64(v)))
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

// ForwardInfer computes tanh.
func (t *Tanh) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return tanhInfer(x, s)
}

// --- pooling and resampling ---

// maxPoolInfer pools each window to its maximum without caching argmax
// indices.
func maxPoolInfer[T tensor.Float](x *tensor.Dense[T], k, stride int, s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, k, stride, 0)
	ow := tensor.ConvOutSize(w, k, stride, 0)
	out := s.arena.NewTensor(n, c, oh, ow)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := T(math.Inf(-1))
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx
							if ix >= w {
								continue
							}
							if v := x.Data[base+iy*w+ix]; v > best {
								best = v
							}
						}
					}
					out.Data[oi] = best
					oi++
				}
			}
		}
	}
	return out
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

// upsampleInfer repeats each pixel f×f times.
func upsampleInfer[T tensor.Float](x *tensor.Dense[T], f int, s *Scratch[T]) *tensor.Dense[T] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: Upsample2D expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := s.arena.NewTensor(n, c, h*f, w*f)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			inBase := (ni*c + ci) * h * w
			outBase := (ni*c + ci) * h * f * w * f
			for iy := 0; iy < h*f; iy++ {
				srcRow := inBase + (iy/f)*w
				dstRow := outBase + iy*w*f
				for ix := 0; ix < w*f; ix++ {
					out.Data[dstRow+ix] = x.Data[srcRow+ix/f]
				}
			}
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
	return maxPoolInfer(x, p.K, p.Stride, s)
}

// ForwardInfer averages the spatial dimensions.
func (g *GlobalAvgPool) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return globalAvgPoolInfer(x, s)
}

// ForwardInfer repeats each pixel factor×factor times.
func (u *Upsample2D) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return upsampleInfer(x, u.Factor, s)
}

// ForwardInfer flattens via an arena-backed view.
func (f *Flatten) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return flattenInfer(x, s)
}

// ForwardInfer reshapes via an arena-backed view.
func (r *Reshape2D4D) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	return s.arena.View(x, x.Shape[0], r.C, r.H, r.W)
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

// resample redraws the noise tensor when the layer is in resample mode,
// reporting whether it did. It mutates the layer, exactly as Forward does —
// a layer in resample mode is not usable concurrently either way.
func (a *AdditiveNoise) resample() bool {
	if a.Mode != NoiseResample {
		return false
	}
	a.r.FillNormal(a.Noise.Value.Data, 0, a.Sigma)
	return true
}

// ForwardInfer adds the noise tensor (redrawn first in resample mode) to
// every sample.
func (a *AdditiveNoise) ForwardInfer(x *tensor.Tensor, s *Scratch[float64]) *tensor.Tensor {
	a.resample()
	return addNoiseInfer(x, a.Noise.Value.Data, s)
}

// --- residual block ---

// blockOp is a BasicBlock's inference-time state; short marks a projection
// shortcut (identity otherwise).
type blockOp[T tensor.Float] struct {
	conv1, conv2, shortConv convOp[T]
	bn1, bn2, shortBN       bnOp[T]
	short                   bool
}

// inferOp views the block's live sublayers; the batch-norm reciprocal
// deviations land in s.
func (b *BasicBlock) inferOp(s *Scratch[float64]) blockOp[float64] {
	op := blockOp[float64]{
		conv1: b.Conv1.inferOp(), bn1: b.BN1.inferOp(s.arena.Alloc(b.BN1.C)),
		conv2: b.Conv2.inferOp(), bn2: b.BN2.inferOp(s.arena.Alloc(b.BN2.C)),
	}
	if b.ShortConv != nil {
		op.short = true
		op.shortConv = b.ShortConv.inferOp()
		op.shortBN = b.ShortBN.inferOp(s.arena.Alloc(b.ShortBN.C))
	}
	return op
}

func narrowBlock(b blockOp[float64]) blockOp[float32] {
	op := blockOp[float32]{
		conv1: narrowConv(b.conv1), bn1: narrowBN(b.bn1),
		conv2: narrowConv(b.conv2), bn2: narrowBN(b.bn2),
		short: b.short,
	}
	if b.short {
		op.shortConv, op.shortBN = narrowConv(b.shortConv), narrowBN(b.shortBN)
	}
	return op
}

// infer runs both branches over the scratch and applies both rectifiers and
// the residual sum in place on the main branch's buffers (this block owns
// them — nothing else aliases an activation the block just produced).
func (b blockOp[T]) infer(x *tensor.Dense[T], s *Scratch[T]) *tensor.Dense[T] {
	main := b.bn1.infer(b.conv1.infer(x, s), s)
	reluSlice(main.Data, main.Data)
	main = b.bn2.infer(b.conv2.infer(main, s), s)

	short := x
	if b.short {
		short = b.shortBN.infer(b.shortConv.infer(x, s), s)
	}
	if !main.SameShape(short) {
		panic(fmt.Sprintf("nn: BasicBlock branch shapes %v vs %v", main.Shape, short.Shape))
	}
	tensor.AddInto(main, main, short)
	reluSlice(main.Data, main.Data)
	return main
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
	_ InferenceLayer = (*Tanh)(nil)
	_ InferenceLayer = (*MaxPool2D)(nil)
	_ InferenceLayer = (*GlobalAvgPool)(nil)
	_ InferenceLayer = (*Upsample2D)(nil)
	_ InferenceLayer = (*Flatten)(nil)
	_ InferenceLayer = (*Reshape2D4D)(nil)
	_ InferenceLayer = (*AdditiveNoise)(nil)
	_ InferenceLayer = (*Dropout)(nil)
	_ InferenceLayer = (*BasicBlock)(nil)
)
