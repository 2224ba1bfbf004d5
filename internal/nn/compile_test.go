package nn_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/data"
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
		{"decoder", decoderLikeStack(), []int{5, 4, 4, 4}},
	} {
		warm := tensor.New(tc.shape...)
		rng.New(21).FillNormal(warm.Data, 0, 1)
		tc.net.Forward(warm, true) // populate batch-norm running statistics

		n32, err := nn.Compile[float32](tc.net)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		s64 := nn.NewScratch()
		s32 := new(nn.Scratch[float32])
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

// TestCompileF32RejectsUnknownLayers pins the no-silent-fallback rule at
// both precisions: a layer outside the compiled inventory (a custom Layer,
// which only its caching Forward can run), at the top level or inside a
// nested network, fails compilation loudly, and the refusal runs nothing.
func TestCompileF32RejectsUnknownLayers(t *testing.T) {
	custom := &fallbackLayer{}
	for _, tc := range []struct {
		net  *nn.Network
		want string
	}{
		{nn.NewNetwork("custom", nn.NewReLU(), custom), "no compiled inference path"},
		{nn.NewNetwork("outer", nn.NewNetwork("inner", custom)), "no compiled inference path"},
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

// TestCompilePacksFiniteConvs pins which convolutions Compile hands the
// direct kernel at each precision: every one whose weights are finite at T,
// holding only the packed copy. A weight that is not finite at T (±Inf,
// NaN, or at float32 one finite at float64 that overflows float32) makes
// the padding products the direct kernel leaves out NaN. At float32 such a
// layer is refused with an error naming it, since no other path serves an
// f32 body; at float64 it keeps the im2col panel over the live weights, so
// Compile[float64] never refuses.
func TestCompilePacksFiniteConvs(t *testing.T) {
	for _, tc := range []struct {
		name             string
		weight           float64
		packed32, packed bool
	}{
		{"finite", 0.5, true, true},
		{"zero", 0, true, true},
		{"max-f32", math.MaxFloat32, true, true},
		{"overflows-f32", 1e39, false, true},
		{"max-f64", math.MaxFloat64, false, true},
		{"+inf", math.Inf(1), false, false},
		{"-inf", math.Inf(-1), false, false},
		{"nan", math.NaN(), false, false},
	} {
		conv := nn.NewConv2D("c", 3, 12, 3, 1, 1, true, rng.New(5))
		conv.W.Value.Data[40] = tc.weight
		if got := nn.ConvPacked[float32](conv); got != tc.packed32 {
			t.Errorf("%s weight: Compile[float32] packs the conv: %v, want %v", tc.name, got, tc.packed32)
		}
		net := nn.NewNetwork("n", conv)
		_, err := nn.Compile[float32](net)
		if refused := err != nil; refused == tc.packed32 || refused && !strings.Contains(err.Error(), "Conv2D c.w:") {
			t.Errorf("%s weight: Compile[float32] error %v, want a refusal naming Conv2D c.w exactly when the conv is not packed", tc.name, err)
		}
		if got := nn.ConvPacked[float64](conv); got != tc.packed {
			t.Errorf("%s weight: Compile[float64] packs the conv: %v, want %v", tc.name, got, tc.packed)
		}
		if !tc.packed && !nn.ConvViewsLiveWeights(conv) {
			t.Errorf("%s weight: Compile[float64] does not view the live weights", tc.name)
		}
		if _, err := nn.Compile[float64](net); err != nil {
			t.Errorf("%s weight: Compile[float64]: %v", tc.name, err)
		}
	}
}

// TestCompileF64IsTheOracle pins the float64 compile to the oracle's bits:
// Compile[float64] packs the conv weights for the direct kernel, which adds
// the oracle's products in its order and leaves out only padding products
// that add nothing, views everything else in place and precomputes only
// what ForwardInfer evaluates per pass, so over the test stacks, the seeded split
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
		{"decoder", decoderLikeStack(), []int{5, 4, 4, 4}},
		{"seed body", golden.NewBody("golden", rng.New(1301)), []int{4, golden.HeadC, golden.H, golden.W}},
		{"cifar100 body", split.DefaultArch(data.CIFAR100Like).NewBody("c100", rng.New(1302)), []int{2, golden.HeadC, golden.H, golden.W}},
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

// TestReLUFoldsIntoMaxPool holds Compile's fused ReLU→MaxPool2D step to the
// two layers it replaces, bit for bit at both precisions, over windows of
// NaN, −0 and +0, ±Inf, all-negative values and mixes of them: at float64
// against the live ForwardInfer (the oracle, which keeps both layers), at
// float32 against the ReLU and the pool compiled apart.
func TestReLUFoldsIntoMaxPool(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	x := tensor.New(2, 3, 6, 6)
	rng.New(51).FillNormal(x.Data, 0, 1)
	for i, win := range [][4]float64{
		{nan, nan, nan, nan},
		{negZero, negZero, negZero, negZero},
		{negZero, 0, nan, -1},
		{0, negZero, -2, -3},
		{-inf, -inf, -inf, -inf},
		{-1, -2, -0.5, -3},
		{inf, nan, 1, 2},
		{nan, 3, nan, 5},
		{-inf, nan, 1e-300, negZero},
	} {
		// window i of plane 0: rows 2·(i/3) and 2·(i/3)+1, columns 2·(i%3)…
		base := 2*(i/3)*6 + 2*(i%3)
		x.Data[base], x.Data[base+1], x.Data[base+6], x.Data[base+7] = win[0], win[1], win[2], win[3]
	}
	for i := 36; i < 72; i++ { // plane 1 all negative
		x.Data[i] = -math.Abs(x.Data[i]) - 1e-3
	}
	net := nn.NewNetwork("fold", nn.NewReLU(), nn.NewMaxPool2D(2, 2))
	c64, err := nn.Compile[float64](net)
	if err != nil {
		t.Fatal(err)
	}
	c32, err := nn.Compile[float32](net)
	if err != nil {
		t.Fatal(err)
	}
	if n64, n32 := nn.CompiledSteps(c64), nn.CompiledSteps(c32); n64 != 1 || n32 != 1 {
		t.Fatalf("ReLU→MaxPool2D compiled to %d (f64) and %d (f32) steps, want 1", n64, n32)
	}

	want64 := net.ForwardInfer(x, nn.NewScratch())
	got64 := c64.ForwardInfer(x, nn.NewScratch())
	for i, v := range got64.Data {
		if math.Float64bits(v) != math.Float64bits(want64.Data[i]) {
			t.Errorf("f64 output %d is %v, ReLU then pool %v", i, v, want64.Data[i])
		}
		if math.IsNaN(v) || math.Signbit(v) {
			t.Errorf("f64 output %d is %v: a rectified pool is never NaN or negative", i, v)
		}
	}

	relu32, _ := nn.Compile[float32](nn.NewNetwork("relu", nn.NewReLU()))
	pool32, _ := nn.Compile[float32](nn.NewNetwork("pool", nn.NewMaxPool2D(2, 2)))
	x32 := tensor.Narrow32(x)
	want32 := pool32.ForwardInfer(relu32.ForwardInfer(x32, new(nn.Scratch[float32])), new(nn.Scratch[float32]))
	got32 := c32.ForwardInfer(x32, new(nn.Scratch[float32]))
	for i, v := range got32.Data {
		if math.Float32bits(v) != math.Float32bits(want32.Data[i]) {
			t.Errorf("f32 output %d is %v, ReLU then pool %v", i, v, want32.Data[i])
		}
	}
}

// TestReLUFoldOnlyBeforeAPool pins where Compile fuses layers into one step
// (compileRun): a ReLU directly followed by a MaxPool2D, a BatchNorm2D,
// ReLU and MaxPool2D run, and a Conv2D followed by a BatchNorm2D and
// optionally a ReLU, each in the same layer list, and nowhere else. The
// CIFAR-100 body has no pool and no top-level convolution, so its compile
// keeps one step per layer; the CIFAR-10 body's BN→ReLU→MaxPool2D becomes
// one step. Batch norm then a pool, or then a ReLU with no pool, does not
// fuse.
func TestReLUFoldOnlyBeforeAPool(t *testing.T) {
	conv := func() *nn.Conv2D { return nn.NewConv2D("c", 2, 2, 1, 1, 0, false, rng.New(2)) }
	bn := func() *nn.BatchNorm2D { return nn.NewBatchNorm2D("bn", 2) }
	for _, tc := range []struct {
		name  string
		net   *nn.Network
		folds int
	}{
		{"cifar10 body", split.DefaultArch(data.CIFAR10Like).NewBody("b", rng.New(1)), 2},
		{"cifar100 body", split.DefaultArch(data.CIFAR100Like).NewBody("b", rng.New(1)), 0},
		{"pool then relu", nn.NewNetwork("pr", nn.NewMaxPool2D(2, 2), nn.NewReLU()), 0},
		{"relu last", nn.NewNetwork("r", nn.NewReLU()), 0},
		{"relu, conv, pool", nn.NewNetwork("rcp", nn.NewReLU(), conv(), nn.NewMaxPool2D(2, 2)), 0},
		{"relu, relu, pool", nn.NewNetwork("rrp", nn.NewReLU(), nn.NewReLU(), nn.NewMaxPool2D(2, 2)), 1},
		{"bn, pool", nn.NewNetwork("bp", bn(), nn.NewMaxPool2D(2, 2)), 0},
		{"bn, relu", nn.NewNetwork("br", bn(), nn.NewReLU()), 0},
		{"bn, relu, pool", nn.NewNetwork("brp", bn(), nn.NewReLU(), nn.NewMaxPool2D(2, 2)), 2},
		{"conv, bn", nn.NewNetwork("cb", conv(), bn()), 1},
		{"conv, bn, relu, pool", nn.NewNetwork("cbrp", conv(), bn(), nn.NewReLU(), nn.NewMaxPool2D(2, 2)), 2},
		{"conv, relu, bn", nn.NewNetwork("crb", conv(), nn.NewReLU(), bn()), 0},
	} {
		c, err := nn.Compile[float32](tc.net)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := nn.CompiledSteps(c), len(tc.net.Layers)-tc.folds; got != want {
			t.Errorf("%s: %d compiled steps for %d layers, want %d", tc.name, got, len(tc.net.Layers), want)
		}
	}
}

// TestConvBNChannelMismatchPanicsAtInfer holds a conv followed by a batch
// norm over another number of channels to what the two layers do as
// separate steps: Compile succeeds, and inference panics with the batch
// norm's shape message, at both precisions.
func TestConvBNChannelMismatchPanicsAtInfer(t *testing.T) {
	for _, bnC := range []int{2, 4} {
		net := nn.NewNetwork("cb", nn.NewConv2D("c", 2, 3, 1, 1, 0, false, rng.New(2)), nn.NewBatchNorm2D("bn", bnC))
		x := tensor.New(1, 2, 4, 4)
		rng.New(3).FillNormal(x.Data, 0, 1)
		c64, err := nn.Compile[float64](net)
		if err != nil {
			t.Fatalf("bn over %d channels: Compile[float64]: %v", bnC, err)
		}
		c32, err := nn.Compile[float32](net)
		if err != nil {
			t.Fatalf("bn over %d channels: Compile[float32]: %v", bnC, err)
		}
		for name, run := range map[string]func(){
			"f64": func() { c64.ForwardInfer(x, nn.NewScratch()) },
			"f32": func() { c32.ForwardInfer(tensor.Narrow32(x), new(nn.Scratch[float32])) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "BatchNorm2D bn.gamma expects") {
						t.Errorf("bn over %d channels, %s: panic %v, want the batch norm's shape check", bnC, name, r)
					}
				}()
				run()
			}()
		}
	}
}
