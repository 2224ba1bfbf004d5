// Package metrics implements the image-quality and similarity measures the
// Ensembler evaluation reports: SSIM and PSNR for reconstruction quality
// (Tables I and II), cosine similarity (the Stage-3 regularizer and the
// head-divergence analysis), plus MSE and classification accuracy helpers.
package metrics

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// MSE returns the mean squared error between two equal-shape tensors.
func MSE(a, b *tensor.Tensor) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("metrics: MSE shapes %v vs %v", a.Shape, b.Shape))
	}
	s := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += float64(d * d)
	}
	return s / float64(a.Size())
}

// PSNR returns the peak signal-to-noise ratio in dB for images in [0,1].
// Identical images return +Inf; callers that aggregate should use
// PSNRCapped.
func PSNR(a, b *tensor.Tensor) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(mse)
}

// PSNRCapped is PSNR clamped to cap dB so means over batches stay finite.
func PSNRCapped(a, b *tensor.Tensor, cap float64) float64 {
	p := PSNR(a, b)
	if p > cap {
		return cap
	}
	return p
}

// gaussianKernel returns a normalized 1-D Gaussian window.
func gaussianKernel(size int, sigma float64) []float64 {
	k := make([]float64, size)
	sum := 0.0
	mid := float64(float64(size-1) / 2)
	for i := range k {
		d := float64(i) - mid
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// SSIM computes the mean structural similarity index between two images of
// shape [C,H,W] with values in [0,1], using the standard Wang et al.
// formulation: an 8-pixel Gaussian-weighted sliding window (σ=1.5), constants
// C1=(0.01)², C2=(0.03)², averaged over all window positions and channels.
// Window size shrinks automatically for images smaller than 8 pixels.
func SSIM(a, b *tensor.Tensor) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("metrics: SSIM shapes %v vs %v", a.Shape, b.Shape))
	}
	if len(a.Shape) != 3 {
		panic(fmt.Sprintf("metrics: SSIM expects [C,H,W], got %v", a.Shape))
	}
	c, h, w := a.Shape[0], a.Shape[1], a.Shape[2]
	win := 8
	if h < win || w < win {
		win = min(h, w)
	}
	kern := gaussianKernel(win, 1.5)
	const c1 = 0.01 * 0.01
	const c2 = 0.03 * 0.03

	total, count := 0.0, 0
	for ci := 0; ci < c; ci++ {
		pa := a.Data[ci*h*w : (ci+1)*h*w]
		pb := b.Data[ci*h*w : (ci+1)*h*w]
		for wy := 0; wy+win <= h; wy++ {
			for wx := 0; wx+win <= w; wx++ {
				var mx, my float64
				for ky := 0; ky < win; ky++ {
					rowA := pa[(wy+ky)*w+wx:]
					rowB := pb[(wy+ky)*w+wx:]
					for kx := 0; kx < win; kx++ {
						wgt := kern[ky] * kern[kx]
						mx += float64(wgt * rowA[kx])
						my += float64(wgt * rowB[kx])
					}
				}
				var vx, vy, cov float64
				for ky := 0; ky < win; ky++ {
					rowA := pa[(wy+ky)*w+wx:]
					rowB := pb[(wy+ky)*w+wx:]
					for kx := 0; kx < win; kx++ {
						wgt := kern[ky] * kern[kx]
						da := rowA[kx] - mx
						db := rowB[kx] - my
						vx += float64(wgt * da * da)
						vy += float64(wgt * db * db)
						cov += float64(wgt * da * db)
					}
				}
				num := (float64(2*mx*my) + c1) * (float64(2*cov) + c2)
				den := (float64(mx*mx) + float64(my*my) + c1) * (vx + vy + c2)
				total += num / den
				count++
			}
		}
	}
	return total / float64(count)
}

// BatchSSIM averages SSIM over corresponding samples of two [N,C,H,W]
// tensors.
func BatchSSIM(a, b *tensor.Tensor) float64 {
	n := a.Shape[0]
	s := 0.0
	for i := 0; i < n; i++ {
		s += SSIM(a.SampleView(i), b.SampleView(i))
	}
	return s / float64(n)
}

// BatchPSNR averages capped PSNR over corresponding samples.
func BatchPSNR(a, b *tensor.Tensor) float64 {
	n := a.Shape[0]
	s := 0.0
	for i := 0; i < n; i++ {
		s += PSNRCapped(a.SampleView(i), b.SampleView(i), 60)
	}
	return s / float64(n)
}

// CosineSimilarity returns <a,b>/(|a||b|) over flattened tensors, the
// similarity the Stage-3 regularizer penalizes (Eq. 3). Zero vectors yield 0.
func CosineSimilarity(a, b *tensor.Tensor) float64 {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("metrics: cosine sizes %d vs %d", a.Size(), b.Size()))
	}
	var dot, na, nb float64
	for i, v := range a.Data {
		w := b.Data[i]
		dot += float64(v * w)
		na += float64(v * v)
		nb += float64(w * w)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
