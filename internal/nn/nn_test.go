package nn

import (
	"bytes"
	"math"
	"testing"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// projLoss computes L = <layer(x), G> for a fixed random projection G,
// giving a scalar loss whose analytic input/parameter gradients come from
// Backward(G). It returns the loss plus the projection used.
func projLoss(l Layer, x *tensor.Tensor, train bool, g *tensor.Tensor) float64 {
	y := l.Forward(x, train)
	if g != nil {
		return y.Dot(g)
	}
	return y.Sum()
}

// checkLayerGradients verifies the analytic gradients of l against central
// differences, for both the input and every parameter.
func checkLayerGradients(t *testing.T, name string, l Layer, x *tensor.Tensor, train bool) {
	t.Helper()
	r := rng.New(12345)
	y := l.Forward(x, train)
	g := tensor.New(y.Shape...)
	r.FillNormal(g.Data, 0, 1)

	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	gx := l.Backward(g)

	const eps = 1e-6
	const tol = 2e-4
	checkOne := func(what string, buf []float64, analytic float64, idx int) {
		t.Helper()
		old := buf[idx]
		buf[idx] = old + eps
		lp := projLoss(l, x, train, g)
		buf[idx] = old - eps
		lm := projLoss(l, x, train, g)
		buf[idx] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-analytic) > tol*(1+math.Abs(num)) {
			t.Errorf("%s %s[%d]: numeric %v vs analytic %v", name, what, idx, num, analytic)
		}
	}
	idxs := []int{0, x.Size() / 2, x.Size() - 1}
	for _, idx := range idxs {
		checkOne("x", x.Data, gx.Data[idx], idx)
	}
	for _, p := range l.Params() {
		pidxs := []int{0, p.Value.Size() / 2, p.Value.Size() - 1}
		for _, idx := range pidxs {
			checkOne(p.Name, p.Value.Data, p.Grad().Data[idx], idx)
		}
		// The probe re-ran Forward/Backward? No — projLoss only reruns
		// Forward, so accumulated grads are unchanged.
	}
}

func randInput(seed int64, shape ...int) *tensor.Tensor {
	r := rng.New(seed)
	x := tensor.New(shape...)
	r.FillNormal(x.Data, 0, 1)
	return x
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(1)
	l := NewConv2D("c", 3, 4, 3, 1, 1, true, r)
	checkLayerGradients(t, "Conv2D", l, randInput(2, 2, 3, 6, 6), true)
}

func TestConv2DStride2Gradients(t *testing.T) {
	r := rng.New(2)
	l := NewConv2D("c", 2, 3, 3, 2, 1, false, r)
	checkLayerGradients(t, "Conv2D/s2", l, randInput(3, 2, 2, 8, 8), true)
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(3)
	l := NewLinear("fc", 6, 4, r)
	checkLayerGradients(t, "Linear", l, randInput(4, 3, 6), true)
}

func TestReLUGradients(t *testing.T) {
	checkLayerGradients(t, "ReLU", NewReLU(), randInput(5, 2, 10), true)
}

func TestLeakyReLUGradients(t *testing.T) {
	checkLayerGradients(t, "LeakyReLU", NewLeakyReLU(0.1), randInput(6, 2, 10), true)
}

func TestSigmoidGradients(t *testing.T) {
	checkLayerGradients(t, "Sigmoid", NewSigmoid(), randInput(7, 2, 10), true)
}

func TestBatchNormTrainGradients(t *testing.T) {
	l := NewBatchNorm2D("bn", 3)
	// Nudge gamma/beta off their init so the test isn't at a special point.
	l.Gamma.Value.Data[1] = 1.3
	l.Beta.Value.Data[2] = -0.4
	checkLayerGradients(t, "BatchNorm(train)", l, randInput(9, 4, 3, 5, 5), true)
}

func TestBatchNormEvalGradients(t *testing.T) {
	l := NewBatchNorm2D("bn", 2)
	// Populate running stats with a couple of training passes first.
	x := randInput(10, 4, 2, 4, 4)
	l.Forward(x, true)
	l.Forward(x.Scale(1.5), true)
	checkLayerGradients(t, "BatchNorm(eval)", l, randInput(11, 4, 2, 4, 4), false)
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	l := NewBatchNorm2D("bn", 2)
	x := randInput(12, 8, 2, 6, 6).AddInPlace(tensor.Full(3, 8, 2, 6, 6))
	y := l.Forward(x, true)
	// Per-channel mean ~0 and variance ~1 after normalization (gamma=1, beta=0).
	n, c, h, w := y.Shape[0], y.Shape[1], y.Shape[2], y.Shape[3]
	for ci := 0; ci < c; ci++ {
		sum, sumSq := 0.0, 0.0
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * h * w
			for j := 0; j < h*w; j++ {
				v := y.Data[base+j]
				sum += v
				sumSq += v * v
			}
		}
		m := float64(n * h * w)
		mean := sum / m
		variance := sumSq/m - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Errorf("channel %d mean %v", ci, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Errorf("channel %d variance %v", ci, variance)
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	checkLayerGradients(t, "MaxPool", NewMaxPool2D(2, 2), randInput(13, 2, 2, 6, 6), true)
}

func TestMaxPoolValues(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := NewMaxPool2D(2, 2).Forward(x, false)
	want := tensor.FromSlice([]float64{6, 8, 14, 16}, 1, 1, 2, 2)
	if !y.AllClose(want, 0) {
		t.Errorf("MaxPool = %v", y.Data)
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	checkLayerGradients(t, "GAP", NewGlobalAvgPool(), randInput(14, 3, 4, 5, 5), true)
}

func TestGlobalAvgPoolValues(t *testing.T) {
	x := tensor.Full(2, 2, 3, 4, 4)
	y := NewGlobalAvgPool().Forward(x, false)
	if len(y.Shape) != 2 || y.Shape[0] != 2 || y.Shape[1] != 3 {
		t.Fatalf("GAP shape %v", y.Shape)
	}
	for _, v := range y.Data {
		if v != 2 {
			t.Fatalf("GAP value %v", v)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := randInput(16, 2, 3, 4, 4)
	y := f.Forward(x, false)
	if y.Shape[0] != 2 || y.Shape[1] != 48 {
		t.Fatalf("Flatten shape %v", y.Shape)
	}
	g := f.Backward(y)
	if !g.SameShape(x) {
		t.Errorf("Flatten backward shape %v", g.Shape)
	}
}

func TestAdditiveNoiseFixedGradients(t *testing.T) {
	r := rng.New(17)
	l := NewAdditiveNoise("n", NoiseFixed, 2, 4, 4, 0.3, r)
	checkLayerGradients(t, "AdditiveNoise", l, randInput(18, 3, 2, 4, 4), true)
}

func TestAdditiveNoiseFixedIsConstant(t *testing.T) {
	r := rng.New(19)
	l := NewAdditiveNoise("n", NoiseFixed, 1, 2, 2, 0.5, r)
	x := tensor.New(1, 1, 2, 2)
	y1 := l.Forward(x, true)
	y2 := l.Forward(x, false)
	if !y1.AllClose(y2, 0) {
		t.Error("fixed noise must not change between calls")
	}
	if y1.L2Norm() == 0 {
		t.Error("noise should be nonzero")
	}
}

func TestAdditiveNoiseTrainableGradient(t *testing.T) {
	r := rng.New(21)
	l := NewAdditiveNoise("n", NoiseTrainable, 1, 2, 2, 0.1, r)
	x := randInput(22, 3, 1, 2, 2)
	y := l.Forward(x, true)
	g := tensor.Full(1, y.Shape...)
	l.Noise.ZeroGrad()
	l.Backward(g)
	// dL/dnoise = sum over batch of ones = batch size.
	for i, v := range l.Noise.Grad().Data {
		if v != 3 {
			t.Errorf("noise grad[%d] = %v, want 3", i, v)
		}
	}
	if len(l.Params()) != 1 {
		t.Error("trainable noise must expose its parameter")
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	l := NewDropout(0.5, rng.New(23))
	x := randInput(24, 2, 8)
	y := l.Forward(x, false)
	if !y.AllClose(x, 0) {
		t.Error("dropout in eval mode must be the identity")
	}
}

func TestDropoutMaskConsistency(t *testing.T) {
	l := NewDropout(0.5, rng.New(25))
	x := tensor.Full(1, 1, 100)
	y := l.Forward(x, true)
	g := l.Backward(tensor.Full(1, 1, 100))
	zeros := 0
	for i := range y.Data {
		if (y.Data[i] == 0) != (g.Data[i] == 0) {
			t.Fatal("backward mask must match forward mask")
		}
		if y.Data[i] == 0 {
			zeros++
		} else if math.Abs(y.Data[i]-2) > 1e-12 {
			t.Fatalf("survivor not rescaled: %v", y.Data[i])
		}
	}
	if zeros < 25 || zeros > 75 {
		t.Errorf("zeros = %d out of 100, suspicious for p=0.5", zeros)
	}
}

func TestBasicBlockGradientsIdentityShortcut(t *testing.T) {
	r := rng.New(26)
	b := NewBasicBlock("blk", 3, 3, 1, r)
	checkLayerGradients(t, "BasicBlock/id", b, randInput(27, 2, 3, 6, 6), true)
}

func TestBasicBlockGradientsProjectionShortcut(t *testing.T) {
	r := rng.New(28)
	b := NewBasicBlock("blk", 2, 4, 2, r)
	checkLayerGradients(t, "BasicBlock/proj", b, randInput(29, 2, 2, 6, 6), true)
}

func TestBasicBlockShapes(t *testing.T) {
	r := rng.New(30)
	b := NewBasicBlock("blk", 4, 8, 2, r)
	y := b.Forward(randInput(31, 2, 4, 8, 8), false)
	want := []int{2, 8, 4, 4}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("block output shape %v, want %v", y.Shape, want)
		}
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	logits := randInput(32, 4, 5)
	labels := []int{1, 0, 4, 2}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-6
	for _, idx := range []int{0, 7, 13, 19} {
		old := logits.Data[idx]
		logits.Data[idx] = old + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[idx] = old - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[idx] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[idx]) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("CE grad[%d]: numeric %v vs analytic %v", idx, num, grad.Data[idx])
		}
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float64{100, 0, 0, 0, 100, 0}, 2, 3)
	loss, _ := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss > 1e-6 {
		t.Errorf("loss for perfect prediction = %v", loss)
	}
}

func TestMSELossGradient(t *testing.T) {
	pred := randInput(34, 2, 6)
	target := randInput(35, 2, 6)
	loss, grad := MSELoss(pred, target)
	if loss < 0 {
		t.Fatal("MSE must be non-negative")
	}
	const eps = 1e-6
	for _, idx := range []int{0, 5, 11} {
		old := pred.Data[idx]
		pred.Data[idx] = old + eps
		lp, _ := MSELoss(pred, target)
		pred.Data[idx] = old - eps
		lm, _ := MSELoss(pred, target)
		pred.Data[idx] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[idx]) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("MSE grad[%d]: numeric %v vs analytic %v", idx, num, grad.Data[idx])
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 2, 0,
		5, 1, 1,
		0, 0, 3,
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 2}); got != 1 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := Accuracy(logits, []int{0, 0, 2}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	a := randInput(36, 3, 4)
	b := randInput(37, 3, 2)
	c := randInput(38, 3, 5)
	cat := ConcatFeatures([]*tensor.Tensor{a, b, c})
	if cat.Shape[0] != 3 || cat.Shape[1] != 11 {
		t.Fatalf("concat shape %v", cat.Shape)
	}
	parts := SplitFeatureGrad(cat, []int{4, 2, 5})
	if !parts[0].AllClose(a, 0) || !parts[1].AllClose(b, 0) || !parts[2].AllClose(c, 0) {
		t.Error("split(concat(x)) != x")
	}
}

func TestNetworkForwardBackwardChains(t *testing.T) {
	r := rng.New(39)
	net := NewNetwork("tiny",
		NewConv2D("c1", 1, 2, 3, 1, 1, true, r),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear("fc", 2, 3, r),
	)
	checkLayerGradients(t, "Network", net, randInput(40, 2, 1, 5, 5), true)
}

func TestNetworkNumParams(t *testing.T) {
	r := rng.New(41)
	net := NewNetwork("n", NewLinear("fc", 4, 3, r))
	if got := net.NumParams(); got != 4*3+3 {
		t.Errorf("NumParams = %d", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(42)
	build := func() *Network {
		rr := rng.New(100) // structure init; values get overwritten by Load
		return NewNetwork("m",
			NewConv2D("c1", 1, 2, 3, 1, 1, false, rr),
			NewBatchNorm2D("bn1", 2),
			NewReLU(),
			NewGlobalAvgPool(),
			NewLinear("fc", 2, 3, rr),
		)
	}
	src := build()
	// Randomize source weights and run a training-mode forward so running
	// stats are non-trivial.
	for _, p := range src.Params() {
		r.FillNormal(p.Value.Data, 0, 1)
	}
	x := randInput(43, 4, 1, 6, 6)
	src.Forward(x, true)

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := build()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	xs := randInput(44, 2, 1, 6, 6)
	if !dst.Forward(xs, false).AllClose(src.Forward(xs, false), 1e-12) {
		t.Error("loaded network differs from saved network in eval mode")
	}
}

func TestCopyStateFrom(t *testing.T) {
	r := rng.New(45)
	a := NewNetwork("a", NewLinear("fc", 3, 2, r))
	b := NewNetwork("b", NewLinear("fc2", 3, 2, r))
	if err := b.CopyStateFrom(a); err != nil {
		t.Fatal(err)
	}
	x := randInput(46, 2, 3)
	if !b.Forward(x, false).AllClose(a.Forward(x, false), 0) {
		t.Error("CopyStateFrom did not replicate behaviour")
	}
}

func TestLoadRejectsMissingParam(t *testing.T) {
	r := rng.New(47)
	src := NewNetwork("m", NewLinear("fc", 2, 2, r))
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewNetwork("m", NewLinear("other", 2, 2, r))
	if err := dst.Load(&buf); err == nil {
		t.Error("Load should fail when a parameter name is missing")
	}
}
