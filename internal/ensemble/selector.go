// Package ensemble implements the paper's primary contribution: the
// Ensembler framework. The server hosts N bodies; the client secretly
// activates P of them through a private Selector (Eq. 1) and trains its
// head/tail in three stages (Eqs. 2-3) so that any shadow network the
// adversarial server reconstructs — from one body, a guessed subset, or all
// N bodies — emulates the wrong client head.
package ensemble

import (
	"fmt"
	"sort"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// Selector is the client's secret activation (Eq. 1): it picks P of the N
// feature vectors the server returns, scales each by S_i = 1/P, and
// concatenates them as the tail's input. The selection indices never leave
// the client.
type Selector struct {
	N, P    int
	Indices []int // ascending subset of [0,N), secret to the server
}

// NewSelector draws a secret uniform P-subset of [0,N) — Stage 2 of the
// training pipeline.
func NewSelector(n, p int, r *rng.RNG) *Selector {
	if p <= 0 || p > n {
		panic(fmt.Sprintf("ensemble: selector P=%d out of range for N=%d", p, n))
	}
	idx := r.Choose(n, p)
	sort.Ints(idx)
	return &Selector{N: n, P: p, Indices: idx}
}

// FixedSelector builds a selector with explicit indices (for tests and for
// reloading a saved pipeline).
func FixedSelector(n int, indices []int) *Selector {
	seen := map[int]bool{}
	for _, i := range indices {
		if i < 0 || i >= n || seen[i] {
			panic(fmt.Sprintf("ensemble: invalid selector indices %v for N=%d", indices, n))
		}
		seen[i] = true
	}
	idx := append([]int(nil), indices...)
	sort.Ints(idx)
	return &Selector{N: n, P: len(idx), Indices: idx}
}

// Apply implements Eq. 1 on the full list of N server feature matrices
// [B,D]: Concat[S_i ⊙ f for f in selected], with S_i = 1/P. The result is a
// fresh heap tensor.
func (s *Selector) Apply(features []*tensor.Tensor) *tensor.Tensor {
	var heap tensor.Arena[float64]
	return s.ApplyInto(&heap, features)
}

// ApplyInto is Apply with the result carved out of a, the inference path's
// form: over a warmed arena it allocates nothing. Only the selected entries
// of features are read, so unselected ones may be nil.
func (s *Selector) ApplyInto(a *tensor.Arena[float64], features []*tensor.Tensor) *tensor.Tensor {
	if len(features) != s.N {
		panic(fmt.Sprintf("ensemble: selector got %d feature maps, want N=%d", len(features), s.N))
	}
	return s.scaleConcat(a, features, s.Indices)
}

// ApplySelected is Apply for callers that already computed only the P
// selected branches (the client-side training path, which skips unselected
// bodies entirely).
func (s *Selector) ApplySelected(features []*tensor.Tensor) *tensor.Tensor {
	if len(features) != s.P {
		panic(fmt.Sprintf("ensemble: got %d selected feature maps, want P=%d", len(features), s.P))
	}
	var heap tensor.Arena[float64]
	return s.scaleConcat(&heap, features, nil)
}

// scaleConcat is Eq. 1's one kernel: part j — features[pick[j]], or
// features[j] when pick is nil — is scaled by 1/P while it is copied into
// columns [j·D,(j+1)·D) of the [B,P·D] result. Each value is v * (1/P), the
// product a Scale followed by nn.ConcatFeatures computes, so the result is
// bit-identical to that composition (TestSelectorKernelBits).
func (s *Selector) scaleConcat(a *tensor.Arena[float64], features []*tensor.Tensor, pick []int) *tensor.Tensor {
	var out *tensor.Tensor
	var rows, d int
	scale := 1 / float64(s.P)
	for j := 0; j < s.P; j++ {
		p := features[j]
		if pick != nil {
			p = features[pick[j]]
		}
		if j == 0 && len(p.Shape) == 2 {
			rows, d = p.Shape[0], p.Shape[1]
			out = a.NewTensor(rows, s.P*d)
		}
		if len(p.Shape) != 2 || p.Shape[0] != rows || p.Shape[1] != d || len(p.Data) != rows*d {
			panic(fmt.Sprintf("ensemble: selector part %d has shape %v (%d values), want [%d,%d]", j, p.Shape, len(p.Data), rows, d))
		}
		for i := 0; i < rows; i++ {
			dst := out.Data[(i*s.P+j)*d:][:d]
			for k, v := range p.Data[i*d:][:d] {
				dst[k] = v * scale
			}
		}
	}
	return out
}

// SplitGrad routes the gradient of the concatenated tail input back to the
// P selected branches, undoing the concat and applying the 1/P scaling's
// chain rule.
func (s *Selector) SplitGrad(grad *tensor.Tensor, featureDim int) []*tensor.Tensor {
	widths := make([]int, s.P)
	for i := range widths {
		widths[i] = featureDim
	}
	parts := nn.SplitFeatureGrad(grad, widths)
	for _, p := range parts {
		p.ScaleInPlace(1 / float64(s.P))
	}
	return parts
}

// Contains reports whether body index i is selected.
func (s *Selector) Contains(i int) bool {
	for _, v := range s.Indices {
		if v == i {
			return true
		}
	}
	return false
}

// SubsetCount returns the number of non-empty subsets of N bodies — the
// brute-force search space of an attacker who must guess the selection
// (§III-D: expected MIA time O(2^N)).
func SubsetCount(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out - 1
}
