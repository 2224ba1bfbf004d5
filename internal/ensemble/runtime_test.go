package ensemble

import (
	"fmt"
	"math"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, v, want.Data[i])
		}
	}
}

// TestSelectorKernelBits pins the one scale-while-copying kernel behind
// Apply, ApplyInto and ApplySelected to the composition it replaced: each
// selected part Scaled by 1/P, then nn.ConcatFeatures.
func TestSelectorKernelBits(t *testing.T) {
	const n, d = 5, 7
	for _, indices := range [][]int{{3}, {0, 1, 2, 3, 4}, {1, 4}} {
		for _, rows := range []int{1, 8} {
			t.Run(fmt.Sprintf("P=%d/rows=%d", len(indices), rows), func(t *testing.T) {
				sel := FixedSelector(n, indices)
				r := rng.New(int64(31*len(indices) + rows))
				feats := make([]*tensor.Tensor, n)
				for i := range feats {
					feats[i] = tensor.New(rows, d)
					r.FillNormal(feats[i].Data, 0, 3)
				}
				feats[indices[0]].Data[0] = math.Inf(1) // survives v * (1/P) as it did Scale
				var picked, scaled []*tensor.Tensor
				for _, i := range sel.Indices {
					picked = append(picked, feats[i])
					scaled = append(scaled, feats[i].Scale(1/float64(sel.P)))
				}
				want := nn.ConcatFeatures(scaled)

				sameBits(t, "Apply", sel.Apply(feats), want)
				sameBits(t, "ApplySelected", sel.ApplySelected(picked), want)
				// Arena data is unzeroed by contract: the kernel must overwrite
				// every element of a dirty destination.
				var a tensor.Arena[float64]
				for pass := 0; pass < 3; pass++ {
					a.Reset()
					got := sel.ApplyInto(&a, feats)
					sameBits(t, "ApplyInto", got, want)
					for i := range got.Data {
						got.Data[i] = math.NaN()
					}
				}
			})
		}
	}
}

func TestSelectorKernelRejectsRaggedParts(t *testing.T) {
	sel := FixedSelector(3, []int{0, 2})
	for name, feats := range map[string][]*tensor.Tensor{
		"width":   {tensor.New(2, 4), nil, tensor.New(2, 5)},
		"rows":    {tensor.New(2, 4), nil, tensor.New(1, 4)},
		"rank":    {tensor.New(2, 2, 2), nil, tensor.New(2, 2, 2)},
		"missing": {tensor.New(2, 4), tensor.New(2, 4), nil},
		"short":   {tensor.New(2, 4), nil, {Shape: []int{2, 4}, Data: make([]float64, 3)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: selection over malformed parts must panic", name)
				}
			}()
			sel.Apply(feats)
		}()
	}
}

// TestClientRuntimeMatchesTrainingPath holds the scratch-backed runtime hooks
// to the independent oracle: Ensembler.ClientFeatures and Ensembler.Predict
// stay on the training entry Forward(x, false).
func TestClientRuntimeMatchesTrainingPath(t *testing.T) {
	e := untrainedPipeline(41)
	rt := e.NewClientRuntime()
	bodies := e.CloneBodies()
	for _, rows := range []int{1, 8, 1} { // grow the storage, then reuse it at a smaller size
		x := randomImages(e.Cfg, int64(100+rows), rows)
		sameBits(t, "Features", rt.Features(x), e.ClientFeatures(x))
		sameBits(t, "Predict", rt.Predict(x, bodies), e.Predict(x))
	}
}

// TestClientRuntimeHooksOwnTheirStorage pins the lifetime rule: a result is
// invalidated only by the next call of the same method, so hooks looped on
// their own or interleaved never clobber each other.
func TestClientRuntimeHooksOwnTheirStorage(t *testing.T) {
	e := untrainedPipeline(42)
	rt := e.NewClientRuntime()
	x := randomImages(e.Cfg, 7, 2)
	served := e.ServerCompute(e.ClientFeatures(x))
	wantF, wantS := e.ClientFeatures(x), e.Selector.Apply(served)
	for i := 0; i < 3; i++ { // first pass sizes the storage, later ones reuse it
		f := rt.Features(x)
		s := rt.Select(served)
		rt.Select(served)
		sameBits(t, "Features after two Selects", f, wantF)
		s = rt.Select(served)
		rt.Features(randomImages(e.Cfg, 8, 2))
		sameBits(t, "Select after another Features", s, wantS)
	}
}

func TestClientRuntimeHookAllocs(t *testing.T) {
	e := untrainedPipeline(43)
	rt := e.NewClientRuntime()
	x := randomImages(e.Cfg, 9, 1)
	served := e.ServerCompute(e.ClientFeatures(x))
	for name, hook := range map[string]func(){
		"Features": func() { rt.Features(x) },
		"Select":   func() { rt.Select(served) },
	} {
		hook() // sizes the storage
		hook() // first pass over it
		if allocs := testing.AllocsPerRun(50, hook); allocs != 0 {
			t.Errorf("warm ClientRuntime.%s allocates %v times per call, want 0", name, allocs)
		}
	}
}
