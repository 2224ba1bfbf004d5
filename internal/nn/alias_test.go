package nn_test

import (
	"math"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// Flatten returns a view that ALIASES their input's backing
// array (tensor.Reshape / arena.View — a reshape must not copy activations).
// That is only sound while every downstream layer treats its input as
// read-only: a single in-place consumer would corrupt the original header
// mid-pass. The tests below are the enforcement for that contract — they
// fail on any layer that mutates its input, in either precision, so an
// in-place "optimization" added later cannot silently break the views.

// TestLayersDoNotMutateInput walks both test stacks layer by layer, in eval
// Forward, training Forward and ForwardInfer, snapshotting each layer's input
// and requiring it bit-identical after the layer ran. Because reshaped views
// share their backing array, a layer mutating a view fails the check on the
// view itself — the pass covers the aliased case by construction. Training
// mode matters twice over: ReLU's Backward reads its pass-through mask off
// the cached output, and batch norm's and max pooling's off the cached input.
func TestLayersDoNotMutateInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		net   *nn.Network
		shape []int
	}{
		{"resnet", resnetLikeStack(), []int{2, 3, 16, 16}},
		{"decoder", decoderLikeStack(), []int{3, 4, 4, 4}},
	} {
		warm := tensor.New(tc.shape...)
		rng.New(41).FillNormal(warm.Data, 0, 1)
		tc.net.Forward(warm, true) // settle batch-norm running statistics

		x := tensor.New(tc.shape...)
		rng.New(42).FillNormal(x.Data, 0, 1)
		s := nn.NewScratch()
		for _, mode := range []struct {
			name string
			run  func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor
		}{
			{"eval Forward", func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor { return l.Forward(x, false) }},
			{"training Forward", func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor { return l.Forward(x, true) }},
			{"ForwardInfer", func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
				il, ok := l.(nn.InferenceLayer)
				if !ok {
					t.Fatalf("%s: %T has no inference path", tc.name, l)
				}
				return il.ForwardInfer(x, s)
			}},
		} {
			cur := x
			for i, l := range tc.net.Layers {
				before := append([]float64(nil), cur.Data...)
				next := mode.run(l, cur)
				for k, v := range cur.Data {
					if math.Float64bits(v) != math.Float64bits(before[k]) {
						t.Fatalf("%s: layer %d (%T) mutated its input at %d in %s", tc.name, i, l, k, mode.name)
					}
				}
				cur = next
			}
		}
	}
}

// TestForwardInferPreservesCallerInput pins the same read-only contract at
// the network boundary for both precisions: the caller's input tensor — in
// serving, an arena-decoded request or a reshaped view of one — comes back
// bit-identical from a full inference pass.
func TestForwardInferPreservesCallerInput(t *testing.T) {
	net := resnetLikeStack()
	warm := tensor.New(2, 3, 16, 16)
	rng.New(43).FillNormal(warm.Data, 0, 1)
	net.Forward(warm, true)

	x := tensor.New(2, 3, 16, 16)
	rng.New(44).FillNormal(x.Data, 0, 1)
	before := append([]float64(nil), x.Data...)
	net.ForwardInfer(x, nn.NewScratch())
	for k, v := range x.Data {
		if math.Float64bits(v) != math.Float64bits(before[k]) {
			t.Fatalf("f64 ForwardInfer mutated the caller's input at %d", k)
		}
	}

	n32, err := nn.CompileF32(net)
	if err != nil {
		t.Fatal(err)
	}
	x32 := tensor.Narrow32(x)
	before32 := append([]float32(nil), x32.Data...)
	n32.ForwardInfer(x32, new(nn.Scratch[float32]))
	for k, v := range x32.Data {
		if math.Float32bits(v) != math.Float32bits(before32[k]) {
			t.Fatalf("f32 ForwardInfer mutated the caller's input at %d", k)
		}
	}
}

// TestFlattenInferReturnsView pins the zero-copy half of the bargain: the
// inference-path reshape must stay a view (same backing array), because a
// defensive copy here would put an O(activations) allocation back on the
// serving hot path.
func TestFlattenInferReturnsView(t *testing.T) {
	x := tensor.New(2, 4, 3, 3)
	rng.New(45).FillNormal(x.Data, 0, 1)
	s := nn.NewScratch()
	out := nn.NewFlatten().ForwardInfer(x, s)
	if len(out.Shape) != 2 || out.Shape[0] != 2 || out.Shape[1] != 36 {
		t.Fatalf("flatten shape %v, want [2 36]", out.Shape)
	}
	if &out.Data[0] != &x.Data[0] {
		t.Fatal("Flatten.ForwardInfer copied its input; it must alias")
	}
}
