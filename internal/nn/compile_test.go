package nn_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// relErr32 is the drift gate shared by the f32-backend tests: absolute
// difference over max(1, |reference|), so features near zero are held to an
// absolute budget and large ones to a relative one.
func relErr32(got float32, want float64) float64 {
	return math.Abs(float64(got)-want) / math.Max(1, math.Abs(want))
}

// TestCompileDrift bounds the float32 compile against the float64 oracle: the
// same warmed network, the same inputs, every output feature within the 1e-5
// relative budget the serving stack promises (DESIGN.md §2i). Both test
// stacks together exercise the full compiled layer inventory.
func TestCompileDrift(t *testing.T) {
	const budget = 1e-5
	for _, tc := range []struct {
		name  string
		net   *nn.Network
		shape []int
	}{
		{"resnet", resnetLikeStack(), []int{3, 3, 16, 16}},
		{"decoder", decoderLikeStack(), []int{5, 12}},
	} {
		warm := tensor.New(tc.shape...)
		rng.New(21).FillNormal(warm.Data, 0, 1)
		tc.net.Forward(warm, true) // populate batch-norm running statistics

		n32, err := nn.Compile[float32](tc.net)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		s64 := nn.NewScratch()
		s32 := nn.NewScratch32()
		r := rng.New(22)
		for trial := 0; trial < 10; trial++ {
			x := tensor.New(tc.shape...)
			r.FillNormal(x.Data, 0, 1)
			want := tc.net.ForwardInfer(x, s64)
			got := n32.ForwardInfer(tensor.Narrow32(x), s32)
			if len(got.Data) != len(want.Data) {
				t.Fatalf("%s: f32 output shape %v, f64 %v", tc.name, got.Shape, want.Shape)
			}
			for i, v := range got.Data {
				if e := relErr32(v, want.Data[i]); e > budget {
					t.Fatalf("%s trial %d: feature %d drifts %.3g relative (f32 %v vs f64 %v), budget %g",
						tc.name, trial, i, e, v, want.Data[i], budget)
				}
			}
			s64.Reset()
			s32.Reset()
		}
	}
}

// TestCompileF32RejectsUnknownLayers pins the no-silent-fallback and sharing
// rules at both precisions: a layer outside the compiled inventory (a custom
// Layer, which only its caching Forward can run) or one whose inference pass
// writes state (an AdditiveNoise in resample mode redraws its noise in place)
// fails compilation loudly, and the refusal touches nothing.
func TestCompileF32RejectsUnknownLayers(t *testing.T) {
	custom := &fallbackLayer{}
	noise := nn.NewAdditiveNoise("resample", nn.NoiseResample, 2, 2, 2, 0.1, rng.New(41))
	before := noise.Noise.Value.Clone()
	for _, tc := range []struct {
		net  *nn.Network
		want string
	}{
		{nn.NewNetwork("custom", nn.NewReLU(), custom), "no compiled inference path"},
		{nn.NewNetwork("outer", nn.NewNetwork("resample", noise)), "resample mode"},
	} {
		_, err64 := nn.Compile[float64](tc.net)
		_, err32 := nn.CompileF32(tc.net)
		for _, err := range []error{err64, err32} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: compile error %v, want one naming %q", tc.net.Name, err, tc.want)
			}
		}
	}
	if custom.calls != 0 {
		t.Errorf("refused compile ran the custom layer %d times", custom.calls)
	}
	if !noise.Noise.Value.AllClose(before, 0) {
		t.Error("refused compile redrew the resample-mode noise")
	}
}

// TestForwardInfer32Allocs pins the tentpole property in the f32 precision:
// a warmed float32 inference pass performs zero heap allocations.
func TestForwardInfer32Allocs(t *testing.T) {
	net := resnetLikeStack()
	x := tensor.New(2, 3, 16, 16)
	rng.New(23).FillNormal(x.Data, 0, 1)
	net.Forward(x, true)
	n32, err := nn.CompileF32(net)
	if err != nil {
		t.Fatal(err)
	}
	x32 := tensor.Narrow32(x)
	s := n32.InferScratch(2, 3, 16, 16)
	allocs := testing.AllocsPerRun(20, func() {
		n32.ForwardInfer(x32, s)
		s.Reset()
	})
	if allocs != 0 {
		t.Errorf("warmed f32 ForwardInfer allocates %v times per pass, want 0", allocs)
	}
}

// TestCompileF64IsTheOracle pins the float64 compile to the oracle's bits:
// Compile[float64] views the live weights and precomputes only what
// ForwardInfer evaluates per pass, so over the test stacks, the seeded split
// body and the commtest bodies every output element matches
// (*Network).ForwardInfer bit for bit — and a warmed compiled pass allocates
// nothing.
func TestCompileF64IsTheOracle(t *testing.T) {
	golden := split.Arch{InC: 3, H: 16, W: 16, HeadC: 8, BlockWidths: []int{16, 32}, Classes: 10, UseMaxPool: true}
	tiny := commtest.TinyArch()
	type stack struct {
		name  string
		net   *nn.Network
		shape []int
	}
	stacks := []stack{
		{"resnet", resnetLikeStack(), []int{3, 3, 16, 16}},
		{"decoder", decoderLikeStack(), []int{5, 12}},
		{"seed body", golden.NewBody("golden", rng.New(1301)), []int{4, golden.HeadC, golden.H, golden.W}},
	}
	for i, b := range commtest.Bodies(tiny, 2) {
		stacks = append(stacks, stack{fmt.Sprintf("tiny body %d", i), b, []int{2, tiny.HeadC, tiny.H, tiny.W}})
	}
	for _, tc := range stacks {
		warm := tensor.New(tc.shape...)
		rng.New(31).FillNormal(warm.Data, 0, 1)
		tc.net.Forward(warm, true) // move the batch-norm running statistics off their defaults
		c, err := nn.Compile[float64](tc.net)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		oracle, compiled := nn.NewScratch(), c.InferScratch(tc.shape...)
		x := tensor.New(tc.shape...)
		for trial := 0; trial < 3; trial++ {
			rng.New(int64(32+trial)).FillNormal(x.Data, 0, 1)
			oracle.Reset()
			compiled.Reset()
			want, got := tc.net.ForwardInfer(x, oracle), c.ForwardInfer(x, compiled)
			if !got.SameShape(want) {
				t.Fatalf("%s: compiled shape %v, oracle %v", tc.name, got.Shape, want.Shape)
			}
			for k, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[k]) {
					t.Fatalf("%s trial %d: element %d is %v, oracle %v", tc.name, trial, k, v, want.Data[k])
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			compiled.Reset()
			c.ForwardInfer(x, compiled)
		}); allocs != 0 {
			t.Errorf("%s: warmed compiled pass allocates %v times, want 0", tc.name, allocs)
		}
	}
}
