package nn

import (
	"math"
	"testing"
	"testing/quick"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// randTensor builds a deterministic random tensor from quick's seed input.
func randTensor(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng.New(seed).FillNormal(t.Data, 0, 1)
	return t
}

// Property: ReLU is idempotent — relu(relu(x)) == relu(x).
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randTensor(seed, 2, 12)
		r := NewReLU()
		once := r.Forward(x, false)
		twice := NewReLU().Forward(once, false)
		return twice.AllClose(once, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ReLU output is non-negative and bounded by |x|.
func TestReLURangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randTensor(seed, 3, 9)
		y := NewReLU().Forward(x, false)
		for i, v := range y.Data {
			if v < 0 || v > math.Abs(x.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sigmoid maps into (0,1) and is monotone in its input.
func TestSigmoidRangeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randTensor(seed, 1, 16)
		y := NewSigmoid().Forward(x, false)
		for _, v := range y.Data {
			if v <= 0 || v >= 1 {
				return false
			}
		}
		bigger := NewSigmoid().Forward(x.Add(tensor.Full(0.5, x.Shape...)), false)
		for i := range y.Data {
			if bigger.Data[i] <= y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: global average pooling preserves the total mean.
func TestGAPPreservesMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randTensor(seed, 2, 3, 4, 4)
		y := NewGlobalAvgPool().Forward(x, false)
		return math.Abs(x.Mean()-y.Mean()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: max pooling dominates average pooling elementwise when both use
// the same stride-2 window.
func TestMaxPoolDominatesMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randTensor(seed, 1, 2, 6, 6)
		mp := NewMaxPool2D(2, 2).Forward(x, false)
		// Average over the same windows by hand.
		for ni := 0; ni < 1; ni++ {
			for c := 0; c < 2; c++ {
				for oy := 0; oy < 3; oy++ {
					for ox := 0; ox < 3; ox++ {
						avg := (x.At(ni, c, 2*oy, 2*ox) + x.At(ni, c, 2*oy, 2*ox+1) +
							x.At(ni, c, 2*oy+1, 2*ox) + x.At(ni, c, 2*oy+1, 2*ox+1)) / 4
						if mp.At(ni, c, oy, ox) < avg-1e-12 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: fixed additive noise is a bijection — subtracting the noise
// recovers the input exactly.
func TestAdditiveNoiseInvertibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		l := NewAdditiveNoise("n", NoiseFixed, 2, 3, 3, 0.5, rng.New(seed))
		x := randTensor(seed+1, 2, 2, 3, 3)
		y := l.Forward(x, false)
		recovered := y.Clone()
		per := l.Noise.Value.Size()
		for n := 0; n < 2; n++ {
			for j := 0; j < per; j++ {
				recovered.Data[n*per+j] -= l.Noise.Value.Data[j]
			}
		}
		return recovered.AllClose(x, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: softmax cross-entropy is minimized by the true label — loss for
// a one-hot-correct logit row is below loss for the same row with the true
// logit reduced.
func TestCrossEntropyPrefersTruth(t *testing.T) {
	f := func(seed int64, labelRaw uint8) bool {
		k := 5
		label := int(labelRaw) % k
		logits := randTensor(seed, 1, k)
		boosted := logits.Clone()
		boosted.Data[label] += 2
		lBoost, _ := SoftmaxCrossEntropy(boosted, []int{label})
		lBase, _ := SoftmaxCrossEntropy(logits, []int{label})
		return lBoost < lBase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: dropout in training mode is unbiased in expectation — the mean
// over many masks approaches the identity.
func TestDropoutUnbiasedExpectation(t *testing.T) {
	l := NewDropout(0.3, rng.New(99))
	x := tensor.Full(1, 1, 64)
	sum := tensor.New(1, 64)
	const trials = 3000
	for i := 0; i < trials; i++ {
		sum.AddInPlace(l.Forward(x, true))
	}
	for _, v := range sum.Data {
		if mean := v / trials; math.Abs(mean-1) > 0.08 {
			t.Fatalf("dropout expectation %v, want ~1", mean)
		}
	}
}

// Property: BatchNorm in training mode is invariant to input shift — the
// normalized output ignores a constant added to every element of a channel.
func TestBatchNormShiftInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randTensor(seed, 4, 2, 3, 3)
		a := NewBatchNorm2D("a", 2).Forward(x, true)
		b := NewBatchNorm2D("b", 2).Forward(x.Add(tensor.Full(3.7, x.Shape...)), true)
		return a.AllClose(b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
