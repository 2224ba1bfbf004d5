package ensemble

import (
	"math"
	"testing"
	"testing/quick"

	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

func tinyArch() split.Arch {
	return split.Arch{InC: 3, H: 8, W: 8, HeadC: 4, BlockWidths: []int{8, 16}, Classes: 4, UseMaxPool: true}
}

func tinyData(seed int64) *data.Dataset {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, W: 8, Train: 160, Aux: 16, Test: 16, Seed: seed})
	ds := sp.Train
	out := &data.Dataset{Name: ds.Name, Images: ds.Images, Labels: make([]int, ds.Len()), Classes: 4}
	for i, l := range ds.Labels {
		out.Labels[i] = l % 4
	}
	return out
}

func tinyConfig(seed int64) Config {
	return Config{
		Arch: tinyArch(), N: 3, P: 2, Sigma: 0.1, Lambda: 0.5, Seed: seed,
		Stage1:      split.TrainOptions{Epochs: 3, BatchSize: 16, LR: 0.05},
		Stage3:      split.TrainOptions{Epochs: 5, BatchSize: 16, LR: 0.05},
		Stage1Noise: true,
	}
}

func TestSelectorProperties(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := int(nRaw%8) + 2
		p := int(pRaw)%n + 1
		s := NewSelector(n, p, rng.New(seed))
		if len(s.Indices) != p {
			return false
		}
		// Ascending and in range.
		prev := -1
		for _, i := range s.Indices {
			if i <= prev || i >= n {
				return false
			}
			prev = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSelectorDeterministicPerSeed(t *testing.T) {
	a := NewSelector(10, 4, rng.New(3))
	b := NewSelector(10, 4, rng.New(3))
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("same seed must give same secret selection")
		}
	}
}

func TestFixedSelectorValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate index")
		}
	}()
	FixedSelector(5, []int{1, 1})
}

func TestSelectorApplyScalesAndConcats(t *testing.T) {
	s := FixedSelector(3, []int{0, 2})
	f0 := tensor.FromSlice([]float64{2, 4}, 1, 2)
	f1 := tensor.FromSlice([]float64{9, 9}, 1, 2)
	f2 := tensor.FromSlice([]float64{6, 8}, 1, 2)
	out := s.Apply([]*tensor.Tensor{f0, f1, f2})
	want := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4) // S_i = 1/P = 1/2
	if !out.AllClose(want, 1e-12) {
		t.Errorf("Apply = %v, want %v", out.Data, want.Data)
	}
}

// Property: SplitGrad is the adjoint of ApplySelected — for any features f
// and gradient g, <ApplySelected(f), g> == Σ_i <f_i, SplitGrad(g)_i>.
func TestSelectorAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		s := FixedSelector(4, []int{1, 3})
		d := 5
		feats := []*tensor.Tensor{tensor.New(2, d), tensor.New(2, d)}
		for _, ft := range feats {
			r.FillNormal(ft.Data, 0, 1)
		}
		cat := s.ApplySelected(feats)
		g := tensor.New(cat.Shape...)
		r.FillNormal(g.Data, 0, 1)
		lhs := cat.Dot(g)
		parts := s.SplitGrad(g, d)
		rhs := 0.0
		for i, p := range parts {
			rhs += feats[i].Dot(p)
		}
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSubsetCount(t *testing.T) {
	if SubsetCount(3) != 7 {
		t.Errorf("SubsetCount(3) = %v", SubsetCount(3))
	}
	if SubsetCount(10) != 1023 {
		t.Errorf("SubsetCount(10) = %v", SubsetCount(10))
	}
}

func TestMaxCosineRegularizerGradient(t *testing.T) {
	// Numeric check of the Eq. 3 regularizer's gradient w.r.t. the new
	// head's output.
	a := tinyArch()
	r := rng.New(21)
	heads := []*split.Model{
		split.NewModel("m0", a, 0.1, 0, 0, rng.New(22)),
		split.NewModel("m1", a, 0.1, 0, 0, rng.New(23)),
	}
	x := tensor.New(2, 3, 8, 8)
	r.FillNormal(x.Data, 0, 1)
	headOut := tensor.New(2, 4, 8, 8)
	r.FillNormal(headOut.Data, 0, 1)

	regHeads := []*nn.Network{heads[0].Head, heads[1].Head}
	_, grad := maxCosineRegularizer(headOut, x, regHeads)
	const eps = 1e-6
	for _, idx := range []int{0, 77, 200} {
		old := headOut.Data[idx]
		headOut.Data[idx] = old + eps
		vp, _ := maxCosineRegularizer(headOut, x, regHeads)
		headOut.Data[idx] = old - eps
		vm, _ := maxCosineRegularizer(headOut, x, regHeads)
		headOut.Data[idx] = old
		num := (vp - vm) / (2 * eps)
		if math.Abs(num-grad.Data[idx]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("reg grad[%d]: numeric %v vs analytic %v", idx, num, grad.Data[idx])
		}
	}
}

func TestTrainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	train := tinyData(31)
	e := Train(tinyConfig(1), train, nil)

	if len(e.Members) != 3 || e.Selector.P != 2 {
		t.Fatal("wrong ensemble structure")
	}
	// End-to-end accuracy above chance on the training set.
	if acc := e.Accuracy(train); acc < 0.4 {
		t.Errorf("ensemble train accuracy = %.3f, expected above chance 0.25", acc)
	}

	// The secret head must differ from every stage-1 head: cosine similarity
	// of feature maps bounded away from 1.
	x, _ := train.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for i, c := range e.HeadCosines(x) {
		if c > 0.95 {
			t.Errorf("head cosine vs member %d = %.3f, regularizer should keep it below 0.95", i, c)
		}
	}
}

func TestStage1HeadsAreDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	train := tinyData(32)
	e := Train(tinyConfig(2), train, nil)
	x, _ := train.Batch([]int{0, 1, 2, 3})
	// Pairwise cosine between stage-1 heads' outputs should not be ~1:
	// the per-member fixed noises force distinct heads (paper Stage 1 claim).
	for i := 0; i < len(e.Members); i++ {
		for j := i + 1; j < len(e.Members); j++ {
			a := e.Members[i].Head.Forward(x, false)
			b := e.Members[j].Head.Forward(x, false)
			cos := 0.0
			for s := 0; s < x.Shape[0]; s++ {
				cos += cosine(a.SampleView(s).Data, b.SampleView(s).Data)
			}
			cos /= float64(x.Shape[0])
			if cos > 0.98 {
				t.Errorf("members %d,%d head cosine %.3f — heads not distinct", i, j, cos)
			}
		}
	}
}

func TestServerComputeReturnsAllN(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	train := tinyData(33)
	cfg := tinyConfig(3)
	cfg.Stage1.Epochs = 1
	cfg.Stage3.Epochs = 1
	e := Train(cfg, train, nil)
	x, _ := train.Batch([]int{0, 1})
	feats := e.ServerCompute(e.ClientFeatures(x))
	if len(feats) != cfg.N {
		t.Fatalf("server must compute all %d bodies, got %d", cfg.N, len(feats))
	}
	for _, f := range feats {
		if f.Shape[0] != 2 || f.Shape[1] != cfg.Arch.FeatureDim() {
			t.Fatalf("body feature shape %v", f.Shape)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for P > N")
		}
	}()
	cfg := tinyConfig(4)
	cfg.P = 5
	Train(cfg, tinyData(34), nil)
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(data.CIFAR10Like, 1)
	if cfg.N != 10 || cfg.Sigma != 0.1 {
		t.Errorf("default config N=%d sigma=%v, paper uses N=10 sigma=0.1", cfg.N, cfg.Sigma)
	}
}

// TestServerComputeWithMatchesServerCompute pins the scratch-backed serial
// server pass against the goroutine fan-out form, bit for bit, whatever row
// count the pass before it had, and asserts that its warmed steady state
// allocates nothing over a mix of row counts and that all N bodies ran
// through one scratch, sized for one body pass.
func TestServerComputeWithMatchesServerCompute(t *testing.T) {
	e := New(tinyConfig(91))
	xs := make([]*tensor.Tensor, 2)
	for i, rows := range []int{2, 1} {
		xs[i] = tensor.New(rows, e.Cfg.Arch.HeadC, e.Cfg.Arch.H, e.Cfg.Arch.W)
		rng.New(int64(92+i)).FillNormal(xs[i].Data, 0, 1)
	}

	bs := e.NewBodyScratch()
	for _, x := range []*tensor.Tensor{xs[0], xs[1], xs[0]} {
		want := e.ServerCompute(x)
		got := e.ServerComputeWith(x, bs)
		if len(got) != len(want) {
			t.Fatalf("scratch pass computed %d bodies, want %d", len(got), len(want))
		}
		for i := range want {
			if !got[i].SameShape(want[i]) || !got[i].AllClose(want[i], 0) {
				t.Errorf("%d rows: body %d diverges between ServerCompute and ServerComputeWith", x.Shape[0], i)
			}
		}
	}
	if one := e.Members[0].Body.InferScratch(xs[0].Shape...).Footprint(); bs.sc.Footprint() != one {
		t.Errorf("the %d bodies' scratch holds %d bytes, one body pass's holds %d", len(e.Members), bs.sc.Footprint(), one)
	}
	// Results stay valid until the NEXT call, then the buffers recycle.
	if allocs := testing.AllocsPerRun(10, func() {
		e.ServerComputeWith(xs[0], bs)
		e.ServerComputeWith(xs[1], bs)
	}); allocs != 0 {
		t.Errorf("warmed ServerComputeWith allocates %v times per pair of passes, want 0", allocs)
	}
}
