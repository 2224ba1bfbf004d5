package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

func randImg(seed int64, c, h, w int) *tensor.Tensor {
	t := tensor.New(c, h, w)
	fillUniform(rng.New(seed), t.Data)
	return t
}

// fillUniform fills dst with uniform samples in [0, 1).
func fillUniform(r *rng.RNG, dst []float64) {
	for i := range dst {
		dst[i] = r.Uniform(0, 1)
	}
}

func TestMSEBasics(t *testing.T) {
	a := tensor.FromSlice([]float64{0, 1, 0, 1}, 1, 2, 2)
	b := tensor.FromSlice([]float64{1, 1, 0, 0}, 1, 2, 2)
	if got := MSE(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MSE = %v", got)
	}
	if MSE(a, a) != 0 {
		t.Error("MSE(x,x) must be 0")
	}
}

func TestPSNRIdentical(t *testing.T) {
	a := randImg(1, 3, 8, 8)
	if !math.IsInf(PSNR(a, a), 1) {
		t.Error("PSNR of identical images must be +Inf")
	}
	if got := PSNRCapped(a, a, 60); got != 60 {
		t.Errorf("capped PSNR = %v", got)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	a := tensor.New(1, 4, 4)
	b := tensor.Full(0.1, 1, 4, 4)
	// MSE = 0.01 → PSNR = 20 dB.
	if got := PSNR(a, b); math.Abs(got-20) > 1e-9 {
		t.Errorf("PSNR = %v, want 20", got)
	}
}

// Property: PSNR is symmetric and decreases as noise grows.
func TestPSNRMonotoneInNoise(t *testing.T) {
	f := func(seed int64) bool {
		a := randImg(seed, 3, 8, 8)
		r := rng.New(seed + 1)
		small := a.Clone()
		big := a.Clone()
		for i := range small.Data {
			n := r.Norm()
			small.Data[i] += 0.01 * n
			big.Data[i] += 0.2 * n
		}
		if math.Abs(PSNR(a, small)-PSNR(small, a)) > 1e-9 {
			return false
		}
		return PSNR(a, small) > PSNR(a, big)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSSIMSelfIsOne(t *testing.T) {
	a := randImg(2, 3, 16, 16)
	if got := SSIM(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM(x,x) = %v", got)
	}
}

func TestSSIMRange(t *testing.T) {
	f := func(seed int64) bool {
		a := randImg(seed, 3, 12, 12)
		b := randImg(seed+99, 3, 12, 12)
		s := SSIM(a, b)
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSSIMSymmetric(t *testing.T) {
	a, b := randImg(5, 3, 10, 10), randImg(6, 3, 10, 10)
	if math.Abs(SSIM(a, b)-SSIM(b, a)) > 1e-9 {
		t.Error("SSIM must be symmetric")
	}
}

func TestSSIMDetectsStructureLoss(t *testing.T) {
	// A structured image vs a noisy copy should score higher than vs an
	// unrelated noise image.
	img := tensor.New(1, 16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			img.Set(0.5+0.5*math.Sin(float64(x)/2), 0, y, x)
		}
	}
	r := rng.New(7)
	noisy := img.Clone()
	for i := range noisy.Data {
		noisy.Data[i] += r.Normal(0, 0.05)
	}
	unrelated := tensor.New(1, 16, 16)
	fillUniform(r, unrelated.Data)
	if SSIM(img, noisy) <= SSIM(img, unrelated) {
		t.Error("noisy copy should be more structurally similar than unrelated noise")
	}
}

func TestSSIMSmallImage(t *testing.T) {
	a, b := randImg(8, 3, 4, 4), randImg(9, 3, 4, 4)
	s := SSIM(a, b) // window shrinks to 4, must not panic
	if s < -1 || s > 1 {
		t.Errorf("small-image SSIM out of range: %v", s)
	}
}

// TestSSIMNonSquare covers rectangular images, including both narrow axes
// and the degenerate cases where one dimension is smaller than the 8-pixel
// window (the window must shrink to min(h, w), not either axis alone).
func TestSSIMNonSquare(t *testing.T) {
	for _, dims := range [][2]int{{16, 10}, {10, 16}, {4, 16}, {16, 4}, {5, 9}} {
		h, w := dims[0], dims[1]
		a := randImg(int64(10*h+w), 1, h, w)
		if got := SSIM(a, a); math.Abs(got-1) > 1e-9 {
			t.Errorf("SSIM(x,x) on %dx%d = %v, want 1", h, w, got)
		}
		b := randImg(int64(10*h+w+1), 1, h, w)
		s := SSIM(a, b)
		if s < -1 || s > 1 {
			t.Errorf("SSIM on %dx%d out of range: %v", h, w, s)
		}
		if math.Abs(SSIM(a, b)-SSIM(b, a)) > 1e-9 {
			t.Errorf("SSIM on %dx%d not symmetric", h, w)
		}
	}
	// Transposing both images must not change the score (the window is
	// square, so the sliding positions are mirrored one-to-one).
	a, b := randImg(41, 1, 12, 7), randImg(42, 1, 12, 7)
	at, bt := transpose(a), transpose(b)
	if math.Abs(SSIM(a, b)-SSIM(at, bt)) > 1e-9 {
		t.Errorf("SSIM changed under transposition: %v vs %v", SSIM(a, b), SSIM(at, bt))
	}
}

// transpose swaps the spatial axes of a [C,H,W] image.
func transpose(x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, w, h)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				out.Set(x.At(ci, y, xx), ci, xx, y)
			}
		}
	}
	return out
}

func TestBatchMetrics(t *testing.T) {
	r := rng.New(10)
	a := tensor.New(4, 3, 8, 8)
	fillUniform(r, a.Data)
	if got := BatchSSIM(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("BatchSSIM self = %v", got)
	}
	if got := BatchPSNR(a, a); got != 60 {
		t.Errorf("BatchPSNR self = %v", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 0}, 2)
	b := tensor.FromSlice([]float64{0, 1}, 2)
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v", got)
	}
	if got := CosineSimilarity(a, a.Scale(-2)); math.Abs(got+1) > 1e-12 {
		t.Errorf("opposite cosine = %v", got)
	}
	zero := tensor.New(2)
	if got := CosineSimilarity(a, zero); got != 0 {
		t.Errorf("zero-vector cosine = %v", got)
	}
}

// Property: cosine similarity is scale-invariant.
func TestCosineScaleInvariant(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 0.1 + float64(scaleRaw%50)
		a := randImg(seed, 1, 4, 4)
		b := randImg(seed+3, 1, 4, 4)
		return math.Abs(CosineSimilarity(a, b)-CosineSimilarity(a.Scale(scale), b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
