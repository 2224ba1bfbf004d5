package nn

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy between logits [N,K]
// and integer labels, returning both the loss and dL/d(logits) in one pass
// (the Stage-1/Stage-3 classification loss, Eqs. 2-3 of the paper).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy expects [N,K], got %v", logits.Shape))
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	grad := tensor.New(n, k)
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logSum := math.Log(sum) + maxv
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		loss += logSum - row[y]
		gi := grad.Data[i*k : (i+1)*k]
		for j, v := range row {
			p := math.Exp(v - logSum)
			gi[j] = p / float64(n)
		}
		gi[y] -= 1 / float64(n)
	}
	return loss / float64(n), grad
}

// MSELoss returns mean((pred-target)²) and dL/d(pred). The decoder
// (inversion) training objective uses it with images as targets.
func MSELoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: MSELoss shapes %v vs %v", pred.Shape, target.Shape))
	}
	n := float64(pred.Size())
	grad := tensor.New(pred.Shape...)
	loss := 0.0
	for i, v := range pred.Data {
		d := v - target.Data[i]
		loss += float64(d * d)
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		if bi == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// ConcatFeatures concatenates per-branch feature matrices [N,D_i] along the
// feature dimension, producing [N, ΣD_i]. It is the Selector's Concat
// (Eq. 1); the inverse gradient routing is SplitFeatureGrad.
func ConcatFeatures(parts []*tensor.Tensor) *tensor.Tensor {
	if len(parts) == 0 {
		panic("nn: ConcatFeatures with no parts")
	}
	n := parts[0].Shape[0]
	total := 0
	for _, p := range parts {
		if len(p.Shape) != 2 || p.Shape[0] != n {
			panic(fmt.Sprintf("nn: ConcatFeatures part shape %v", p.Shape))
		}
		total += p.Shape[1]
	}
	out := tensor.New(n, total)
	off := 0
	for _, p := range parts {
		d := p.Shape[1]
		for i := 0; i < n; i++ {
			copy(out.Data[i*total+off:i*total+off+d], p.Data[i*d:(i+1)*d])
		}
		off += d
	}
	return out
}

// SplitFeatureGrad splits a gradient over a concatenated feature matrix back
// into per-branch gradients with the given widths.
func SplitFeatureGrad(grad *tensor.Tensor, widths []int) []*tensor.Tensor {
	n, total := grad.Shape[0], grad.Shape[1]
	sum := 0
	for _, w := range widths {
		sum += w
	}
	if sum != total {
		panic(fmt.Sprintf("nn: SplitFeatureGrad widths %v don't sum to %d", widths, total))
	}
	parts := make([]*tensor.Tensor, len(widths))
	off := 0
	for pi, w := range widths {
		p := tensor.New(n, w)
		for i := 0; i < n; i++ {
			copy(p.Data[i*w:(i+1)*w], grad.Data[i*total+off:i*total+off+w])
		}
		parts[pi] = p
		off += w
	}
	return parts
}
