package nn_test

import (
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// resnetLikeStack builds a network touching the whole server-side layer
// inventory: conv, batch norm, rectifiers, max pooling, residual blocks with
// and without projection shortcuts, global average pooling, flatten, linear.
func resnetLikeStack() *nn.Network {
	r := rng.New(7)
	return nn.NewNetwork("stack",
		nn.NewConv2D("c0", 3, 8, 3, 1, 1, true, r),
		nn.NewBatchNorm2D("bn0", 8),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewBasicBlock("b1", 8, 16, 2, r),
		nn.NewBasicBlock("b2", 16, 16, 1, r),
		nn.NewGlobalAvgPool(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 16, 10, r),
	)
}

// decoderLikeStack covers the remaining inventory: additive noise, leaky
// rectifier, dropout, sigmoid.
func decoderLikeStack() *nn.Network {
	r := rng.New(8)
	return nn.NewNetwork("decoder",
		nn.NewAdditiveNoise("noise", nn.NoiseFixed, 4, 4, 4, 0.1, r),
		nn.NewConv2D("c", 4, 3, 3, 1, 1, true, r),
		nn.NewLeakyReLU(0.1),
		nn.NewDropout(0.5, r),
		nn.NewSigmoid(),
	)
}

func TestForwardInferMatchesForward(t *testing.T) {
	net := resnetLikeStack()
	x := tensor.New(3, 3, 16, 16)
	rng.New(9).FillNormal(x.Data, 0, 1)
	net.Forward(x, true) // populate batch-norm running statistics

	want := net.Forward(x, false)
	s := nn.NewScratch()
	got := net.ForwardInfer(x, s)
	if !got.AllClose(want, 0) {
		t.Error("ForwardInfer diverges from Forward(x, false) on the resnet stack")
	}
	// A second pass over the reset scratch reproduces the result (buffer
	// reuse must not leak state between passes).
	s.Reset()
	if !net.ForwardInfer(x, s).AllClose(want, 0) {
		t.Error("ForwardInfer diverges on a reused scratch")
	}

	dec := decoderLikeStack()
	z := tensor.New(5, 4, 4, 4)
	rng.New(10).FillNormal(z.Data, 0, 1)
	wantDec := dec.Forward(z, false)
	gotDec := dec.ForwardInfer(z, nn.NewScratch())
	if !gotDec.AllClose(wantDec, 0) {
		t.Error("ForwardInfer diverges on the decoder stack")
	}
}

// fallbackLayer is a Layer without an inference path; ForwardInfer must fall
// back to Forward(x, false) for it.
type fallbackLayer struct{ calls int }

func (f *fallbackLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		panic("fallback must run in eval mode")
	}
	f.calls++
	return x.Scale(2)
}
func (f *fallbackLayer) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }
func (f *fallbackLayer) Params() []*nn.Param                         { return nil }

func TestForwardInferFallsBackForCustomLayers(t *testing.T) {
	fb := &fallbackLayer{}
	net := nn.NewNetwork("mixed", nn.NewReLU(), fb)
	x := tensor.New(2, 4)
	x.Data[0], x.Data[1] = 1, -1
	got := net.ForwardInfer(x, nn.NewScratch())
	if fb.calls != 1 {
		t.Fatalf("fallback layer ran %d times, want 1", fb.calls)
	}
	if got.Data[0] != 2 || got.Data[1] != 0 {
		t.Errorf("mixed-stack result %v", got.Data[:2])
	}
}

func TestInferScratchSizing(t *testing.T) {
	net := resnetLikeStack()
	warm := tensor.New(3, 3, 16, 16)
	net.Forward(warm, true)
	s := net.InferScratch(3, 3, 16, 16)
	if s.Footprint() == 0 {
		t.Fatal("InferScratch returned an unsized scratch")
	}
	x := tensor.New(3, 3, 16, 16)
	rng.New(11).FillNormal(x.Data, 0, 1)
	if !net.ForwardInfer(x, s).AllClose(net.Forward(x, false), 0) {
		t.Error("pass over a pre-sized scratch diverges")
	}
}

// TestForwardInferAllocs pins the tentpole property: a warmed inference pass
// performs zero heap allocations.
func TestForwardInferAllocs(t *testing.T) {
	net := resnetLikeStack()
	x := tensor.New(2, 3, 16, 16)
	rng.New(12).FillNormal(x.Data, 0, 1)
	net.Forward(x, true)
	s := net.InferScratch(2, 3, 16, 16)
	allocs := testing.AllocsPerRun(20, func() {
		net.ForwardInfer(x, s)
		s.Reset()
	})
	if allocs != 0 {
		t.Errorf("warmed ForwardInfer allocates %v times per pass, want 0", allocs)
	}
}
